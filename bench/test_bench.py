"""Tests of the benchmark itself, at the tiny input size.

    python3 -m pytest -q bench/test_bench.py

They write only under the checkout's .bench_tmp directory.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from worker import TMP, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def workdir():
    path = TMP / f"test-{id(object())}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result(*args) -> dict:
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def test_spec_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names + list(WORKLOADS))
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    out = result("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", trace, "--size", "tiny")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in out["metrics"].values())
    else:
        values = {k: v["value"] for k, v in out["metrics"].items()}
        assert all(values[k] > 0 for k in TRACED_NONZERO[workload])
        assert {k: values[k] for k in TRACED_EXACT[workload]} == TRACED_EXACT[workload]


# Layers each tiny workload must reach through the wrappers, including
# calls made through another module's globals (verify -> search -> groups).
TRACED_NONZERO = {
    "scan": ["search.extremal_scan.s", "search.extremal_scan.cycles_per_s",
             "search.extremal_scan.threads2_speedup", "groups.arith.calls"],
    "expect": ["expectation.expected_distinct_diffs.s",
               "expectation.monte_carlo_estimate.trials_per_s"],
    "cayley": ["search.minimum_connection_size.s", "search.is_hamiltonian_cayley.backtrack.s",
               "groups.span.calls", "search.rainbow.nodes_per_s"],
    "cli": ["verify.records", "cli.main.self_s", "cli.import.s", "cli.hit_p50_s",
            "search.extremal_scan.s",
            "search.is_hamiltonian_cayley.dp.s", "search.enumerate_cycles.cycles",
            "constructions.build.calls", "expectation.count_constrained_cycles.s"],
}
TRACED_EXACT = {
    "scan": {},
    # 4 groups, each asked once directly and once again by asymptotic_residual
    "expect": {"expectation.expected_distinct_diffs.calls": 8},
    "cayley": {"search.rainbow.nodes": 14 + 9 + 10},
    "cli": {"cache.hits": 8, "cache.misses": 4, "cli.hit.samples": 8,
            "verify.fail": 0, "verify.inconclusive": 0},
}


def _corrupt(pins: dict) -> None:
    tiny = pins["tiny"]
    tiny["scan"]["Z4"]["max_sums"] += 1
    for key in tiny["expect"]:  # every group the seed could pick
        tiny["expect"][key]["residual_sum"] += "1"
    tiny["cayley"]["smin"]["Z17"] += 1
    tiny["cli"]["smin"] = "0" * 64


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_pin_counts_as_failed(workload, workdir):
    pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))
    _corrupt(pins)
    bad = workdir / "pins.json"
    bad.write_text(json.dumps(pins), encoding="utf-8")
    out = result("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", "0", "--size", "tiny", "--pins", str(bad))
    assert not out["correct"]
    assert 0 < out["failed"] <= out["attempted"]


def test_refuses_to_run_without_the_program(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=workdir)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_span_self_time_and_nesting():
    # a(0..10) > b(1..4) > a(2..3); c(5..6) under the outer a
    spans = tracer.Spans({
        "names": ["a", "b", "c"],
        "name": [0, 1, 0, 2],
        "start": [0.0, 1.0, 2.0, 5.0],
        "end": [10.0, 4.0, 3.0, 6.0],
        "parent": [-1, 0, 1, 0],
        "counters": {},
    })
    assert spans.calls({"a"}) == 2
    assert spans.total({"a"}) == 10.0  # the nested a is inside the outer one
    assert spans.total({"b", "c"}) == 4.0
    assert spans.self_time("a") == (10.0 - 3.0 - 1.0) + 1.0
    assert spans.self_time("b") == 2.0
