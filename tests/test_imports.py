"""Which modules a fresh process imports.

numpy is loaded only inside the functions that compute with arrays (the
cycle scan, Monte Carlo, the n x n ``add``/``diff`` tables), so importing
the package, printing help, the commands that never scan and every cache
hit start without it.  Each check runs in a new interpreter with
``PYTHONPATH=src``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# runs hamlabels.cli.main on its arguments, then reports on stderr's last
# line whether numpy was imported
PROBE = """\
import sys
from hamlabels.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print("numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "HAMLABELS_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def _cli(*argv: str) -> tuple[str, int, bool]:
    """stdout, exit code and whether numpy was imported, for one CLI run."""
    proc = _python("-c", PROBE, *argv)
    loaded = proc.stderr.splitlines()[-1]
    assert loaded in ("True", "False"), proc.stderr
    return proc.stdout, proc.returncode, loaded == "True"


def test_import_hamlabels_leaves_numpy_out():
    proc = _python("-c", "import sys, hamlabels; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# bench/tracer.py wraps the modules it finds in sys.modules right after
# importing hamlabels.cli, so each must be imported eagerly
LIBRARY = ("groups", "trails", "constructions", "search", "expectation", "verify",
           "cache")


def test_cli_import_loads_every_library_module():
    code = ("import sys, hamlabels.cli; "
            f"print([m for m in {LIBRARY!r} if 'hamlabels.' + m not in sys.modules])")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# imports hamlabels.cli, scans Z12 at one thread, then at two threads on
# two CPUs (450 blocks, enough for a pool), and prints one line per step:
# whether concurrent.futures is loaded, and then whether the reports agree
POOL_PROBE = f"""\
import json, sys
import hamlabels.cli
from hamlabels import extremal_scan, group, search
print([m for m in {LIBRARY!r} if 'hamlabels.' + m not in sys.modules])
print('concurrent.futures' in sys.modules)
one = json.dumps(extremal_scan(group(12)).to_json_dict())
print('concurrent.futures' in sys.modules)
search.os.sched_getaffinity = lambda pid: {{0, 1}}
two = json.dumps(extremal_scan(group(12), threads=2).to_json_dict())
print('concurrent.futures' in sys.modules)
print(one == two)
"""


def test_thread_pool_module_loads_only_when_a_scan_starts_a_pool():
    # importing concurrent.futures pulls in logging, traceback and queue,
    # which no CLI command at its default of one thread needs
    proc = _python("-c", POOL_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "False", "False", "True", "True"]


# scans Z12 at one thread, then at two on one CPU of this process's own
# affinity mask, and prints whether concurrent.futures is loaded and
# whether the reports agree
ONE_CPU_PROBE = """\
import json, os, sys
from hamlabels import extremal_scan, group
one = json.dumps(extremal_scan(group(12)).to_json_dict())
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
two = json.dumps(extremal_scan(group(12), threads=2).to_json_dict())
print('concurrent.futures' in sys.modules, one == two)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_a_scan_pinned_to_one_cpu_starts_no_thread_pool():
    # 450 blocks would take two threads, but the process may run on one CPU
    proc = _python("-c", ONE_CPU_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True\n"


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("info", "--group", "6"),
    ("construct", "min-diff", "--group", "12"),
    ("smin", "--orders", "3..8"),
], ids=lambda argv: " ".join(argv))
def test_commands_that_never_scan_leave_numpy_out(argv):
    out, code, loaded = _cli(*argv)
    assert code == 0 and out
    assert not loaded


def test_a_cold_scan_loads_numpy():
    out, code, loaded = _cli("scan", "--group", "5")
    assert code == 0 and out
    assert loaded


@pytest.mark.parametrize("argv", [
    ("verify", "--orders", "3..5"),
    ("scan", "--group", "5"),
    ("expect", "--orders", "3..5", "--mc-trials", "200"),
    ("smin", "--orders", "3..8"),
], ids=lambda argv: argv[0])
def test_a_cache_hit_repeats_the_cold_run_without_numpy(argv, tmp_path):
    cache = ("--cache", str(tmp_path))
    cold = _cli(*argv, *cache)
    assert cold[0] and any(tmp_path.iterdir())
    hit = _cli(*argv, *cache)
    assert hit[:2] == cold[:2]
    assert not hit[2]
