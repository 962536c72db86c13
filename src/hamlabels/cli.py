"""Command-line front end.

Subcommands: info, construct <builder>, scan, expect, smin, verify.
Groups are named by descriptor ("2x4", "Z12") or generated from an order
range ("--orders 3..10", expanding to every abelian group of each order).
Reports are byte-deterministic for a fixed configuration: the thread
count only changes wall time, exact rationals are printed as "p/q", and
any decimal shown approximates a rational printed next to it.
``run`` checks a config before the cache lookup and any work.  Each
command runs the library's own domain check on each group as the range
expands to it, so the first refused group, a usage error naming the
command and the group, stops the expansion before any work: scan and
verify refuse an order above ``search.MAX_SCAN_ORDER`` (13), expect one
above ``expectation.MAX_EXACT_ORDER`` (10000), and smin without --budget
one above ``search.DEFAULT_DP_LIMIT`` (16).

Exit codes: 0 all pass, 1 some check failed, 2 usage error, 3 a search
budget left an smin result inconclusive.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, replace
from decimal import Decimal, localcontext
from fractions import Fraction

from . import cache as cache_mod
from . import search
from .constructions import BUILDERS, ConstructionError, _require
from .expectation import (
    DIGITS,
    _check_exact_order,
    _residual,
    expected_distinct_diffs,
    expected_distinct_sums,
    format_rational,
    monte_carlo_estimates,
)
from .groups import (
    GroupParseError,
    GroupSpec,
    _check_count,
    _check_order,
    _divisors,
    abelian_groups,
    parse_group,
)
from .search import (
    ExtremalReport,
    _check_scan_order,
    extremal_scan,
    minimum_connection_size,
)
from .trails import diff_labels, sum_labels, trail_to_json_dict
from .verify import VerificationRecord, _check_verify_order, verify_group

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

CACHE_ENV = "HAMLABELS_CACHE"

# Part of every cache key, with the package version: raise it whenever the
# bytes of a report change for the same run parameters.
REPORT_SCHEMA = 2

VERIFY_ORDERS = (3, 10)  # verify's range when --orders is not given

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
    return lo, hi


def _check_config(cfg: RunConfig) -> None:
    """Refuse a config no command runs, before the cache lookup."""
    if cfg.command not in _COMMANDS:
        raise UsageError(f"unknown command {cfg.command!r}")
    if cfg.fmt not in _RENDERERS:
        raise UsageError(f"unknown format {cfg.fmt!r}")
    if cfg.fmt == "csv" and cfg.command not in _CSV_TABLES:
        raise UsageError(f"csv output is not available for {cfg.command!r}")
    lo, hi = cfg.orders or (1, 1)
    try:
        _check_count("--threads", cfg.threads)
        _check_count("--budget", cfg.budget, or_none=True)
        _check_count("--mc-trials", cfg.mc_trials, or_none=True)
        _check_count("the least order", lo)
        _check_count("the number of orders", hi - lo + 1)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resolve_groups(cfg: RunConfig,
                    admit: Callable[[GroupSpec], None] = lambda G: None) -> list[GroupSpec]:
    """The named groups, then each order's groups, each passed to ``admit``
    as it is reached, so a range expands no further than its first refused
    group; a ValueError from ``admit`` becomes a UsageError."""
    named = []
    for desc in cfg.groups:
        try:
            named.append(parse_group(desc))
        except GroupParseError as exc:
            raise UsageError(str(exc)) from None
    orders = range(cfg.orders[0], cfg.orders[1] + 1) if cfg.orders else ()
    out: list[GroupSpec] = []
    for G in itertools.chain(named, itertools.chain.from_iterable(map(abelian_groups, orders))):
        try:
            admit(G)
        except ValueError as exc:
            raise UsageError(f"{cfg.command} {G}: {exc}") from None
        out.append(G)
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
    groups = _resolve_groups(cfg, lambda G: _require(cfg.builder, G))
    build = BUILDERS[cfg.builder]
    reports = []
    for G in groups:
        try:
            t = build(G)
        except ConstructionError as exc:
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
    groups = _resolve_groups(cfg, lambda G: _check_scan_order(G.order))
    reports = [extremal_scan(G, threads=cfg.threads).to_json_dict() for G in groups]
    return {"command": "scan", "reports": reports}, EXIT_PASS


def _cmd_expect(cfg: RunConfig) -> tuple[dict, int]:
    groups = _resolve_groups(cfg, lambda G: _check_exact_order(G, 3))
    reports = []
    for G in groups:
        mc = monte_carlo_estimates(G, cfg.mc_trials, cfg.seed) if cfg.mc_trials else None
        for mode in ("diff", "sum"):
            exact = (expected_distinct_diffs if mode == "diff"
                     else expected_distinct_sums)(G)
            entry = {
                "group": str(G),
                "mode": mode,
                "exact": format_rational(exact),
                "decimal": _frac_decimal(exact, DIGITS),
                "residual": str(_residual(exact, G.order, DIGITS)),
                "mc": asdict(mc[mode]) if mc else None,
            }
            reports.append(entry)
    return {"command": "expect", "reports": reports}, EXIT_PASS


def _admit_smin(cfg: RunConfig, G: GroupSpec) -> None:
    _check_order(G, 2)
    # above the limit the unbudgeted search keeps no memo and may not end
    if cfg.budget is None and G.order > search.DEFAULT_DP_LIMIT:
        raise ValueError(f"order {G.order} is above {search.DEFAULT_DP_LIMIT}: "
                         f"an unbudgeted search may not end; pass --budget")


def _cmd_smin(cfg: RunConfig) -> tuple[dict, int]:
    groups = _resolve_groups(cfg, lambda G: _admit_smin(cfg, G))
    reports = []
    code = EXIT_PASS
    for G in groups:
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
    # a copy, not cfg: the caller's config keys the cache as it was given
    lo, hi = cfg.orders or VERIFY_ORDERS
    groups = _resolve_groups(replace(cfg, groups=(), orders=(lo, hi)), _check_verify_order)
    records = [r for G in groups for r in verify_group(G, threads=cfg.threads)]
    # no verify check runs under a budget; the key stays for report readers
    summary = {"pass": 0, "fail": 0, "inconclusive": 0}
    for r in records:
        summary[r.verdict] += 1
    code = EXIT_FAIL if summary["fail"] else EXIT_PASS
    return {
        "command": "verify",
        "orders": [lo, hi],
        "records": [r.to_json_dict() for r in records],
        "summary": summary,
    }, code


# command -> (function, help line)
_COMMANDS = {
    "info": (_cmd_info, "group structure report"),
    "construct": (_cmd_construct, "run a named cycle/path builder"),
    "scan": (_cmd_scan, "exhaustive extremal/mean label statistics"),
    "expect": (_cmd_expect, "exact expected distinct label counts"),
    "smin": (_cmd_smin, "minimum Hamiltonian connection-set size"),
    "verify": (_cmd_verify, "run all claim checks over an order range"),
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
    header, key = _CSV_TABLES[payload["command"]]
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


# format -> renderer of a payload
_RENDERERS = {
    "json": lambda payload: json.dumps(payload, indent=2, sort_keys=True) + "\n",
    "csv": _render_csv,
    "text": _render_text,
}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(cfg: RunConfig, out=None) -> int:
    """Execute a config and write the report; returns the exit status."""
    out = out if out is not None else sys.stdout
    cache_root = cfg.cache_path or os.environ.get(CACHE_ENV)
    try:
        _check_config(cfg)
        key = cache_mod.cache_key(cfg.cache_payload()) if cache_root else None
        if key:
            try:
                hit = cache_mod.cache_get(cache_root, key)
            except OSError as exc:
                print(f"warning: cache not read: {exc}", file=sys.stderr)
                hit = None
            if hit is not None:
                out.write(hit["report"])
                return hit["exit_code"]
        payload, code = _COMMANDS[cfg.command][0](cfg)
        report = _RENDERERS[cfg.fmt](payload)
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
    # a flag not given stays unset, so RunConfig's default applies
    commands = {name: sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
                for name, (_, text) in _COMMANDS.items()}
    commands["construct"].add_argument("builder", choices=sorted(BUILDERS))

    def flag(readers: str, *names, **kwargs):
        """Declare one flag on each subcommand that reads it."""
        for command in readers.split():
            commands[command].add_argument(*names, **kwargs)

    flag("info construct scan expect smin", "--group", dest="groups",
         metavar="GROUP", action="append",
         help="group descriptor, e.g. 12 or 2x4 or Z2xZ6 (repeatable)")
    flag("info construct scan expect smin verify", "--orders", type=_parse_orders,
         help="order range A..B expanding to all abelian groups "
              "(verify: default {}..{})".format(*VERIFY_ORDERS))
    flag("smin", "--budget", type=int,
         help="search budget in nodes (reproducible, not wall time)")
    flag("scan verify", "--threads", type=int,
         help="the most scan threads, no more than one per CPU and per "
              f"{search._BLOCKS_PER_THREAD} blocks (wall time only, never output)")
    flag("expect", "--seed", type=int,
         help="seed for Monte Carlo sampling")
    flag("expect", "--mc-trials", dest="mc_trials", type=int,
         help="add a Monte Carlo estimate with this many trials")
    every = " ".join(commands)
    flag(every, "--format", dest="fmt", choices=list(_RENDERERS))
    flag(every, "--cache", dest="cache_path",
         help=f"report cache directory (or ${CACHE_ENV})")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


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
