"""CLI behaviour: report shapes, exit codes, determinism, caching."""

import argparse
import io
import json
from dataclasses import fields

import pytest

from hamlabels import group
from hamlabels.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    RunConfig,
    build_parser,
    config_from_args,
    main,
    run,
)


def run_cli(*argv):
    out = io.StringIO()
    cfg_code = None

    import sys
    real_stdout = sys.stdout
    sys.stdout = out
    try:
        cfg_code = main(list(argv))
    finally:
        sys.stdout = real_stdout
    return cfg_code, out.getvalue()


def run_config(cfg):
    out = io.StringIO()
    code = run(cfg, out=out)
    return code, out.getvalue()


# -- info ------------------------------------------------------------------------

def test_info_report():
    code, text = run_cli("info", "--group", "2x6")
    assert code == EXIT_PASS
    payload = json.loads(text)
    rep = payload["reports"][0]
    assert rep["group"] == "Z2 x Z6"
    assert rep["order"] == 12 and rep["rank"] == 2
    assert rep["element_sum_is_zero"] is True
    assert rep["elements_by_order"]["2"] == 3


def test_info_orders_range():
    code, text = run_cli("info", "--orders", "3..5")
    payload = json.loads(text)
    assert [r["group"] for r in payload["reports"]] == ["Z3", "Z4", "Z2 x Z2", "Z5"]


INFO_Z6_TEXT = """\
command: info
reports:
  element_sum:
    3
  element_sum_is_zero: False
  elements_by_order:
    1: 1
    2: 1
    3: 2
    6: 2
  group: Z6
  invariant_factors:
    6
  involutions: 1
  order: 6
  rank: 1
  two_torsion: 2

"""


def test_info_text_format_and_its_cache_hit(tmp_path):
    assert run_cli("info", "--group", "6", "--format", "text") == (EXIT_PASS, INFO_Z6_TEXT)
    args = ("info", "--group", "6", "--format", "text", "--cache", str(tmp_path))
    cold = run_cli(*args)
    assert len(list(tmp_path.glob("*.json"))) == 1
    assert run_cli(*args) == cold == (EXIT_PASS, INFO_Z6_TEXT)


# -- construct --------------------------------------------------------------------

def test_construct_each_builder():
    cases = [
        ("min-diff", "12"),
        ("even-smin", "2x4"),
        ("odd-smin", "9"),
        ("rs-path", "4"),
        ("rs-cycle", "3x3"),
        ("rd-zigzag", "6"),
        ("e8-cycle", "2x2x2"),
    ]
    for builder, desc in cases:
        code, text = run_cli("construct", builder, "--group", desc)
        assert code == EXIT_PASS, (builder, text)
        rep = json.loads(text)["reports"][0]
        assert rep["builder"] == builder
        assert rep["trail"]["vertices"]


def test_construct_precondition_is_usage_error():
    code, _ = run_cli("construct", "odd-smin", "--group", "4")
    assert code == EXIT_USAGE


def test_construct_refuses_every_group_before_any_build(monkeypatch, capsys):
    from hamlabels import constructions

    calls = []
    real = constructions.BUILDERS["min-diff"]
    monkeypatch.setitem(constructions.BUILDERS, "min-diff",
                        lambda G: calls.append(str(G)) or real(G))
    code, out = run_cli("construct", "min-diff", "--group", "16", "--group", "1")
    assert (code, out, calls) == (EXIT_USAGE, "", [])
    assert "min-diff needs order >= 2, got Z1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, where", [
    (("construct", "odd-smin", "--group", "4"), "construct Z4: "),
    (("scan", "--group", "5", "--group", "14"), "scan Z14: "),
    (("expect", "--group", "5", "--group", "2"), "expect Z2: "),
    (("smin", "--group", "4", "--group", "1"), "smin Z1: "),
    (("verify", "--orders", "1..5"), "verify Z1: need |G| >= 3"),
], ids=["construct", "scan", "expect", "smin", "verify"])
def test_a_refused_group_is_named_with_its_command(argv, where, capsys):
    code, out = run_cli(*argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err.startswith(f"error: {where}")


# -- scan ------------------------------------------------------------------------------

def test_scan_json_exact_rationals():
    code, text = run_cli("scan", "--group", "4")
    assert code == EXIT_PASS
    rep = json.loads(text)["reports"][0]
    assert rep["mean_distinct_diffs"] == "7/3"
    assert rep["mean_distinct_sums"] == "8/3"
    assert rep["min_distinct_diffs"] == 1
    assert rep["cycle_count"] == 6


def test_scan_csv():
    code, text = run_cli("scan", "--group", "4", "--format", "csv")
    assert code == EXIT_PASS
    lines = text.strip().splitlines()
    assert lines[0].startswith("group,order,rank")
    assert lines[1].startswith("Z4,4,1,1,3,2,3,6,7/3,8/3")
    # every row has the same number of cells as the header
    assert {len(l.split(",")) for l in lines} == {len(lines[0].split(","))}


def test_threads_help_reads_the_blocks_per_thread_from_search(monkeypatch):
    from hamlabels import search

    monkeypatch.setattr(search, "_BLOCKS_PER_THREAD", 37)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    [threads] = [a for a in sub.choices["scan"]._actions if "--threads" in a.option_strings]
    assert "per 37 blocks" in threads.help


def test_scan_cap_violation_is_usage_error():
    code, _ = run_cli("scan", "--group", "14")
    assert code == EXIT_USAGE


def test_scan_refuses_a_group_over_the_cap_before_any_scan(monkeypatch):
    import hamlabels.cli as cli

    calls = []
    real = cli.extremal_scan
    monkeypatch.setattr(cli, "extremal_scan",
                        lambda G, **kw: calls.append(str(G)) or real(G, **kw))
    code, out = run_cli("scan", "--group", "9", "--group", "10", "--group", "14")
    assert (code, out, calls) == (EXIT_USAGE, "", [])


# -- expect ------------------------------------------------------------------------------

def test_expect_refuses_a_small_group_before_any_work(monkeypatch):
    import hamlabels.cli as cli

    calls = []
    real = cli.expected_distinct_diffs
    monkeypatch.setattr(cli, "expected_distinct_diffs",
                        lambda G: calls.append(str(G)) or real(G))
    code, out = run_cli("expect", "--group", "5", "--group", "2")
    assert (code, out, calls) == (EXIT_USAGE, "", [])


def test_expect_refuses_a_group_above_the_exact_ceiling_before_any_work(monkeypatch, capsys):
    from hamlabels import expectation

    calls = []
    for name in ("_off_by_one_free_cycles", "_cycles_containing_sum", "_monte_carlo"):
        real = getattr(expectation, name)
        monkeypatch.setattr(expectation, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    too_big = str(expectation.MAX_EXACT_ORDER + 1)
    code, out = run_cli("expect", "--group", "5", "--group", too_big, "--mc-trials", "1000")
    assert (code, out, calls) == (EXIT_USAGE, "", [])
    assert f"expect Z{too_big}: " in capsys.readouterr().err


def test_expect_prints_means_whose_integers_pass_the_str_digit_limit():
    # Z1561's mean differences have a 4,302-digit denominator
    from decimal import Decimal

    from hamlabels import expected_distinct_diffs, expected_distinct_sums

    code, text = run_cli("expect", "--group", "1561")
    assert code == EXIT_PASS
    G = group(1561)
    for rep, fn in zip(json.loads(text)["reports"], (expected_distinct_diffs,
                                                      expected_distinct_sums)):
        p, q = rep["exact"].split("/")
        want = fn(G)
        assert (Decimal(p), Decimal(q)) == (want.numerator, want.denominator)
    assert len(json.loads(text)["reports"][0]["exact"].split("/")[1]) == 4302


def test_expect_exact_reports_both_modes():
    code, text = run_cli("expect", "--group", "4")
    assert code == EXIT_PASS
    assert '"7/3"' in text and '"8/3"' in text
    reports = json.loads(text)["reports"]
    assert [r["mode"] for r in reports] == ["diff", "sum"]
    for r in reports:
        assert r["decimal"]  # float never printed without its exact rational
        assert r["exact"]


def test_expect_monte_carlo_block():
    code, text = run_cli("expect", "--group", "8", "--mc-trials", "2000", "--seed", "5")
    payload = json.loads(text)
    for rep in payload["reports"]:
        assert rep["mc"]["trials"] == 2000
        assert rep["mc"]["seed"] == 5


def test_expect_draws_each_shard_once_for_both_modes(monkeypatch):
    # 5000 trials are two shards; the diff and sum estimates share them
    import numpy as np

    real = np.random.Philox
    keys = []
    monkeypatch.setattr(np.random, "Philox",
                        lambda *a, **kw: keys.append(kw["key"].tolist()) or real(*a, **kw))
    code, _ = run_cli("expect", "--group", "8", "--mc-trials", "5000", "--seed", "5")
    assert code == EXIT_PASS
    assert keys == [[5, 0], [5, 1]]


def test_expect_byte_determinism_including_mc():
    args = ("expect", "--group", "8", "--mc-trials", "1000", "--seed", "3")
    _, a = run_cli(*args)
    _, b = run_cli(*args)
    assert a == b
    _, c = run_cli("expect", "--group", "8", "--mc-trials", "1000", "--seed", "4")
    assert c != a


# -- smin ---------------------------------------------------------------------------------

def test_smin_refuses_a_trivial_group_before_any_search(monkeypatch):
    import hamlabels.cli as cli

    calls = []
    real = cli.minimum_connection_size
    monkeypatch.setattr(cli, "minimum_connection_size",
                        lambda G, **kw: calls.append(str(G)) or real(G, **kw))
    code, out = run_cli("smin", "--group", "4", "--group", "1")
    assert (code, out, calls) == (EXIT_USAGE, "", [])


def test_smin_without_a_budget_refuses_an_order_above_the_memo_limit(capsys):
    code, out = run_cli("smin", "--group", "17")
    assert (code, out) == (EXIT_USAGE, "")
    assert "--budget" in capsys.readouterr().err
    code, out = run_cli("smin", "--group", "17", "--budget", "200000")
    assert code == EXIT_PASS and out


def test_smin_refuses_an_unbudgeted_range_before_any_search(monkeypatch):
    import hamlabels.cli as cli

    calls = []
    real = cli.minimum_connection_size
    monkeypatch.setattr(cli, "minimum_connection_size",
                        lambda G, **kw: calls.append(str(G)) or real(G, **kw))
    code, out = run_cli("smin", "--orders", "3..17")
    assert (code, out, calls) == (EXIT_USAGE, "", [])


def test_smin_report():
    code, text = run_cli("smin", "--group", "9")
    assert code == EXIT_PASS
    rep = json.loads(text)["reports"][0]
    assert rep["status"] == "exact"
    assert rep["size"] == 3
    assert rep["witness_set"]


def test_smin_budget_interval_exit_code():
    # order 27 sits above the exact-DP gate, so a tiny node budget leaves
    # the answer bracketed and the command reports that with exit code 3
    code, text = run_cli("smin", "--group", "3x9", "--budget", "10")
    assert code == EXIT_INCONCLUSIVE
    rep = json.loads(text)["reports"][0]
    assert rep["status"] == "interval"
    assert rep["size"] is None
    assert (rep["lower"], rep["upper"]) == (3, 5)


# -- verify -------------------------------------------------------------------------------

def test_verify_small_range_passes():
    code, text = run_cli("verify", "--orders", "3..6")
    assert code == EXIT_PASS
    payload = json.loads(text)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["inconclusive"] == 0
    groups = {r["group"] for r in payload["records"]}
    assert groups == {"Z3", "Z4", "Z2 x Z2", "Z5", "Z6"}


def test_verify_csv_well_formed():
    code, text = run_cli("verify", "--orders", "3..4", "--format", "csv")
    assert code == EXIT_PASS
    lines = text.strip().splitlines()
    width = len(lines[0].split(","))
    assert all(len(l.split(",")) == width for l in lines)


# -- shared CLI behaviour --------------------------------------------------------------------

def test_unknown_group_is_usage_error():
    code, _ = run_cli("scan", "--group", "banana")
    assert code == EXIT_USAGE


def test_missing_group_is_usage_error():
    code, _ = run_cli("scan")
    assert code == EXIT_USAGE


def test_bad_order_range_is_usage_error():
    code, _ = run_cli("info", "--orders", "5..3")
    assert code == EXIT_USAGE


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_csv_unavailable_for_info():
    code, _ = run_cli("info", "--group", "4", "--format", "csv")
    assert code == EXIT_USAGE


def test_csv_for_a_report_with_no_table_is_refused_before_any_work(monkeypatch, capsys):
    import hamlabels.cli as cli

    calls = []
    monkeypatch.setattr(cli, "expected_distinct_diffs", lambda G: calls.append(str(G)))
    code, out = run_cli("expect", "--group", "5", "--format", "csv")
    assert (code, out, calls) == (EXIT_USAGE, "", [])
    assert "csv output is not available for 'expect'" in capsys.readouterr().err


# the flags each subcommand reads, besides --format and --cache
READS = {
    "info": {"--group", "--orders"},
    "construct": {"--group", "--orders"},
    "scan": {"--group", "--orders", "--threads"},
    "expect": {"--group", "--orders", "--seed", "--mc-trials"},
    "smin": {"--group", "--orders", "--budget"},
    "verify": {"--orders", "--threads"},
}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
    }
    assert accepted == {name: flags | {"--format", "--cache"}
                        for name, flags in READS.items()}
    assert sum(map(len, accepted.values())) == 28


# a run each subcommand completes quickly, and a flag it does not read
IGNORED = [
    (("info", "--group", "4"), ("--budget", "5")),
    (("info", "--group", "4"), ("--threads", "2")),
    (("info", "--group", "4"), ("--seed", "1")),
    (("info", "--group", "4"), ("--cap", "8")),
    (("construct", "min-diff", "--group", "4"), ("--budget", "5")),
    (("construct", "min-diff", "--group", "4"), ("--threads", "2")),
    (("construct", "min-diff", "--group", "4"), ("--seed", "1")),
    (("construct", "min-diff", "--group", "4"), ("--cap", "8")),
    (("scan", "--group", "4"), ("--budget", "5")),
    (("scan", "--group", "4"), ("--seed", "1")),
    (("scan", "--group", "4"), ("--cap", "8")),
    (("expect", "--group", "4"), ("--budget", "5")),
    (("expect", "--group", "4"), ("--threads", "2")),
    (("expect", "--group", "4"), ("--cap", "8")),
    (("expect", "--group", "4"), ("--exact",)),
    (("smin", "--group", "4"), ("--threads", "2")),
    (("smin", "--group", "4"), ("--seed", "1")),
    (("smin", "--group", "4"), ("--cap", "8")),
    (("verify", "--orders", "3..4"), ("--group", "4")),
    (("verify", "--orders", "3..4"), ("--seed", "1")),
    (("verify", "--orders", "3..4"), ("--cap", "8")),
    (("verify", "--orders", "3..4"), ("--budget", "1")),
]


@pytest.mark.parametrize("argv, flag", IGNORED,
                         ids=[f"{argv[0]} {flag[0]}" for argv, flag in IGNORED])
def test_flag_the_subcommand_does_not_read_is_usage_error(argv, flag, capsys):
    assert run_cli(*argv)[0] == EXIT_PASS
    code, out = run_cli(*argv, *flag)
    assert (code, out) == (EXIT_USAGE, "")
    assert flag[0] in capsys.readouterr().err


def _record_scans(monkeypatch):
    """Replace every scan the CLI can start by a Z5 scan; list what was asked."""
    import hamlabels.cli as cli
    import hamlabels.verify as verify

    calls = []
    real = cli.extremal_scan

    def scan(G, **kw):
        calls.append(str(G))
        return real(group(5), **kw)

    monkeypatch.setattr(cli, "extremal_scan", scan)
    monkeypatch.setattr(verify, "extremal_scan", scan)
    return calls


@pytest.mark.parametrize("argv", [("scan", "--group", "14"), ("verify", "--orders", "3..14")],
                         ids=["scan", "verify"])
def test_order_above_the_ceiling_is_usage_error(argv, capsys, monkeypatch):
    calls = _record_scans(monkeypatch)
    code, out = run_cli(*argv)
    assert (code, out, calls) == (EXIT_USAGE, "", [])
    assert "13! = 6227020800 cycles" in capsys.readouterr().err


def test_order_far_above_the_ceiling_is_refused_in_a_short_message(capsys):
    # (n-1)! is left out of the message, not formatted: 1999! has 5,700 digits
    code, out = run_cli("scan", "--group", "2000")
    err = capsys.readouterr().err
    assert (code, out) == (EXIT_USAGE, "")
    assert "the largest order scanned is 13" in err and len(err.encode()) < 200


# each command admits a range's groups as it expands to them: the first
# refused group stops the expansion, so no later order's groups are made
@pytest.mark.parametrize("argv, top, refused", [
    (("scan", "--orders", "3..200000"), 14,
     "scan Z14: order 14 would walk 13! = 6227020800 cycles; "),
    (("verify", "--orders", "3..200000"), 14,
     "verify Z14: order 14 would walk 13! = 6227020800 cycles; "),
    (("smin", "--orders", "3..1000000"), 17, "smin Z17: order 17 is above 16: "),
    (("expect", "--orders", "3..1000000"), 10001,
     "expect Z10001: order 10001 is above the exact-expectation ceiling"),
], ids=["scan", "verify", "smin", "expect"])
def test_a_wide_order_range_expands_no_further_than_its_first_refused_order(
        argv, top, refused, capsys, monkeypatch):
    import hamlabels.cli as cli

    orders = []
    real = cli.abelian_groups
    monkeypatch.setattr(cli, "abelian_groups", lambda n: orders.append(n) or real(n))
    code, out = run_cli(*argv)
    assert (code, out, orders) == (EXIT_USAGE, "", list(range(3, top + 1)))
    assert capsys.readouterr().err.startswith(f"error: {refused}")


def test_scan_at_the_ceiling_needs_no_opt_in(monkeypatch):
    calls = _record_scans(monkeypatch)
    code, _ = run_cli("scan", "--group", "13")
    assert (code, calls) == (EXIT_PASS, ["Z13"])


@pytest.mark.parametrize("argv", [("scan", "--group", "4", "--threads"),
                                  ("verify", "--orders", "3..4", "--threads"),
                                  ("expect", "--group", "4", "--mc-trials"),
                                  ("smin", "--group", "17", "--budget")],
                         ids=["scan --threads", "verify --threads", "expect --mc-trials",
                              "smin --budget"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_count_below_one_is_usage_error(argv, value, capsys):
    code, out = run_cli(*argv, value)
    assert (code, out) == (EXIT_USAGE, "")
    assert "positive integer" in capsys.readouterr().err


# configs the parser never builds, refused by run before the cache lookup
@pytest.mark.parametrize("cfg", [
    RunConfig(command="bogus", groups=("4",)),
    RunConfig(command="scan", groups=("4",), threads=0),
    RunConfig(command="smin", groups=("4",), budget=0),
    RunConfig(command="expect", groups=("4",), mc_trials=0),
    RunConfig(command="info", orders=(0, 3)),
    RunConfig(command="verify", orders=(5, 3)),
    RunConfig(command="info", groups=("4",), fmt="xml"),
], ids=["command", "threads", "budget", "mc_trials", "orders from 0", "orders reversed",
        "format"])
def test_run_refuses_a_config_the_parser_cannot_produce(cfg, tmp_path, capsys):
    cfg.cache_path = str(tmp_path)
    code, out = run_config(cfg)
    assert (code, out, list(tmp_path.iterdir())) == (EXIT_USAGE, "", [])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_byte_determinism_and_thread_independence():
    cfg1 = RunConfig(command="scan", groups=("8",), threads=1)
    cfg2 = RunConfig(command="scan", groups=("8",), threads=4)
    code1, a = run_config(cfg1)
    code2, b = run_config(cfg2)
    assert code1 == code2 == EXIT_PASS
    assert a == b


# -- caching -----------------------------------------------------------------------------------

def test_cache_round_trip(tmp_path):
    args = ("scan", "--group", "6", "--cache", str(tmp_path))
    code1, a = run_cli(*args)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    code2, b = run_cli(*args)
    assert (code1, a) == (code2, b)


def test_cache_key_ignores_threads(tmp_path):
    args = ("scan", "--group", "6", "--cache", str(tmp_path))
    _, a = run_cli(*args)
    _, b = run_cli(*args, "--threads", "2")
    assert b == a
    assert len(list(tmp_path.glob("*.json"))) == 1


@pytest.mark.parametrize("argv, given", [
    (("verify",), {}),
    (("scan", "--group", "4"), {"groups": ["4"]}),
    (("expect", "--orders", "3..5"), {"orders": (3, 5)}),
    (("smin", "--group", "9", "--format", "text"), {"groups": ["9"], "fmt": "text"}),
    (("construct", "min-diff", "--group", "4"), {"builder": "min-diff", "groups": ["4"]}),
], ids=["verify", "scan", "expect", "smin", "construct"])
def test_an_omitted_flag_takes_the_run_config_default(argv, given):
    assert config_from_args(build_parser().parse_args(argv)) == RunConfig(argv[0], **given)


def test_cache_payload_holds_every_field_that_can_change_a_report():
    keys = set(RunConfig(command="scan").cache_payload())
    assert keys == ({f.name for f in fields(RunConfig)} - {"threads", "cache_path"}
                    | {"version", "schema"})


def test_cache_key_depends_on_budget(tmp_path):
    run_cli("smin", "--group", "9", "--cache", str(tmp_path))
    run_cli("smin", "--group", "9", "--budget", "999999", "--cache", str(tmp_path))
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_cache_corruption_recovers(tmp_path):
    args = ("scan", "--group", "6", "--cache", str(tmp_path))
    _, a = run_cli(*args)
    entry = next(tmp_path.glob("*.json"))
    entry.write_text("{ not json !")
    code, b = run_cli(*args)
    assert code == EXIT_PASS
    assert b == a  # recomputed, not served from the corrupt entry
    # and the entry was repaired
    _, c = run_cli(*args)
    assert c == a


@pytest.mark.parametrize("payload", [
    {"report": 5, "exit_code": 0, "checksum": "x"},
    {"report": None, "exit_code": 0, "checksum": "x"},
    ["report", 0],
    "report",
], ids=["int-report", "null-report", "list", "string"])
def test_cache_entry_of_the_wrong_shape_is_a_repaired_miss(tmp_path, payload):
    from hamlabels import cache

    args = ("smin", "--group", "9", "--cache", str(tmp_path))
    cold = run_cli(*args)
    entry = next(tmp_path.glob("*.json"))
    entry.write_text(json.dumps(payload))
    assert run_cli(*args) == cold  # recomputed, not a traceback
    assert cache.cache_get(tmp_path, entry.stem) == {"report": cold[1], "exit_code": cold[0]}


@pytest.mark.parametrize("exit_code", [3, "2"])
def test_cache_entry_with_an_edited_exit_code_is_a_repaired_miss(tmp_path, exit_code):
    from hamlabels import cache

    args = ("smin", "--group", "9", "--cache", str(tmp_path))
    cold = run_cli(*args)
    entry = next(tmp_path.glob("*.json"))
    stored = json.loads(entry.read_text())
    entry.write_text(json.dumps({**stored, "exit_code": exit_code}))
    assert run_cli(*args) == cold  # recomputed, not served with the edited code
    assert cache.cache_get(tmp_path, entry.stem) == {"report": cold[1], "exit_code": cold[0]}


def test_cache_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("HAMLABELS_CACHE", str(tmp_path))
    run_cli("info", "--group", "4")
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_cache_key_depends_on_package_version(tmp_path, monkeypatch):
    import hamlabels

    args = ("scan", "--group", "6", "--cache", str(tmp_path))
    _, a = run_cli(*args)
    monkeypatch.setattr(hamlabels, "__version__", hamlabels.__version__ + "+changed")
    _, b = run_cli(*args)  # a miss: computed again and stored under a new key
    assert b == a
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_cache_write_failure_leaves_no_partial_entry(tmp_path, monkeypatch):
    import os

    from hamlabels import cache

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    code, text = run_cli("scan", "--group", "6", "--cache", str(tmp_path))
    assert code == EXIT_PASS and json.loads(text)["command"] == "scan"
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(OSError):
        cache.cache_put(tmp_path, "k", "report", 0)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["stat", "read_text"])
def test_cache_read_failure_is_a_miss_that_keeps_the_entry(tmp_path, monkeypatch,
                                                             capsys, method):
    import errno
    import pathlib

    args = ("smin", "--group", "9", "--cache", str(tmp_path))
    cold = run_cli(*args)
    entry = next(tmp_path.glob("*.json"))
    stored = entry.read_bytes()
    capsys.readouterr()
    real = getattr(pathlib.Path, method)

    def unreadable(self, *a, **kw):
        if self == entry:
            raise PermissionError(errno.EACCES, "Permission denied", str(self))
        return real(self, *a, **kw)

    monkeypatch.setattr(pathlib.Path, method, unreadable)
    assert run_cli(*args) == cold  # recomputed, not a traceback
    assert "warning: cache not read: " in capsys.readouterr().err
    monkeypatch.undo()
    assert entry.read_bytes() == stored  # left in place, not deleted
