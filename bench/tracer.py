"""Span recorder that wraps hamlabels from outside the package.

``install`` replaces every public function of the package modules with a
wrapper that records a span (name, start, end, parent) and rebinds the
wrapper wherever another module bound the original, so calls made
through module globals (``hamlabels.cli.extremal_scan``,
``hamlabels.verify.minimum_connection_size``, ...) are caught too.
``GroupSpec`` element arithmetic and ``Trail`` construction are counted,
not spanned: they run millions of times.  Spans stay in memory and are
written out by ``Recorder.dump``; ``layer_metrics`` turns span files into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from array import array
from collections import Counter

MODULES = ("groups", "trails", "constructions", "search", "expectation",
           "verify", "cache", "cli")

# cli.run is left unwrapped so that the cli.main span's self time is the
# front end's own work: argument parsing, dispatch and rendering.
_ONLY = {"cli": ("main",)}

ARITH = ("add", "sub", "neg", "scalar_mul", "element_index", "element_order",
         "contains")

BUILDERS = ("fewest_diffs_cycle", "fewest_sums_cycle_even", "fewest_sums_cycle_odd",
            "rainbow_sum_path", "rainbow_sum_cycle_odd", "elementary_abelian8_cycle",
            "zigzag_diff_path")
RAINBOW = ("find_rainbow_diff_path", "find_rainbow_sum_cycle",
           "find_rainbow_diff_cycle_nonzero")


class Recorder:
    """In-memory spans plus counters; one stack of open spans per thread."""

    def __init__(self):
        self.active = True
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: Counter = Counter()
        self._arith: list[itertools.count] = []
        self._trails = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()  # guards the span arrays and counters

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def dump(self, path) -> None:
        """Write spans and counters as JSON; counters from count wrappers
        are read here."""
        counters = dict(self.counters)
        counters["groups.arith.calls"] = sum(next(c) for c in self._arith)
        counters["trails.Trail.calls"] = next(self._trails)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.name_id.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "counters": counters,
            }, fh)


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, key, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _span_name(mod: str, fname: str, fn):
    """Span name as a function of the call's arguments."""
    base = f"{mod}.{fname}"
    if base == "search.is_hamiltonian_cayley":
        limit = inspect.signature(fn).parameters["dp_limit"].default

        def name(args, kwargs):
            small = args[0].order <= kwargs.get("dp_limit", limit)
            return base + (".dp" if small else ".backtrack")
        return name
    if base == "search.is_connected_cayley":
        return lambda args, kwargs: f"{base}.{_arg(args, kwargs, 2, 'method', 'structural')}"
    return lambda args, kwargs: base


def _on_result(mod: str, fname: str):
    """Counter updates taken from a call's arguments and result."""
    if mod == "search" and fname == "extremal_scan":
        def hook(c, args, kwargs, res):
            c["search.extremal_scan.cycles"] += res.cycle_count
        return hook
    if mod == "search" and fname in RAINBOW:
        def hook(c, args, kwargs, res):
            c["search.rainbow.nodes"] += res.nodes
        return hook
    if mod == "expectation" and fname == "monte_carlo_estimate":
        def hook(c, args, kwargs, res):
            c["expectation.monte_carlo_estimate.trials"] += res.trials
        return hook
    if mod == "verify" and fname == "verify_group":
        def hook(c, args, kwargs, res):
            c["verify.records"] += len(res)
            for r in res:
                c[f"verify.{r.verdict}"] += 1
        return hook
    if mod == "cache" and fname == "cache_get":
        def hook(c, args, kwargs, res):
            c["cache.misses" if res is None else "cache.hits"] += 1
        return hook
    if mod == "cache" and fname == "cache_put":
        def hook(c, args, kwargs, res):
            c["cache.bytes"] += len(_arg(args, kwargs, 2, "report", "").encode("utf-8"))
        return hook
    return None


def _wrap(rec: Recorder, mod: str, fname: str, fn):
    name_of = _span_name(mod, fname, fn)
    hook = _on_result(mod, fname)

    if inspect.isgeneratorfunction(fn):
        # one span per resumption, so the consumer's work between items
        # stays out of the generator's time
        counter = f"{mod}.{fname}.items"

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if not rec.active:
                yield from fn(*args, **kwargs)
                return
            name = name_of(args, kwargs)
            it = fn(*args, **kwargs)
            while True:
                idx = rec.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(idx)
                with rec._lock:
                    rec.counters[counter] += 1
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name_of(args, kwargs))
        try:
            res = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            with rec._lock:
                hook(rec.counters, args, kwargs, res)
        return res
    return wrapper


def _counting(rec: Recorder, fn, counter: itertools.count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.active:
            next(counter)
        return fn(*args, **kwargs)
    return wrapper


def install(rec: Recorder) -> None:
    """Wrap the public functions of every imported hamlabels module."""
    mods = {m: sys.modules[f"hamlabels.{m}"] for m in MODULES
            if f"hamlabels.{m}" in sys.modules}
    replaced: dict[int, object] = {}
    for m, mod in mods.items():
        for fname in _ONLY.get(m, mod.__all__):
            fn = getattr(mod, fname)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                replaced[id(fn)] = _wrap(rec, m, fname, fn)
    for mod in [sys.modules["hamlabels"], *mods.values()]:
        for key, val in list(vars(mod).items()):
            if id(val) in replaced:
                setattr(mod, key, replaced[id(val)])
            elif isinstance(val, dict):  # e.g. constructions.BUILDERS
                for k, v in val.items():
                    if id(v) in replaced:
                        val[k] = replaced[id(v)]

    groups = mods["groups"]
    for meth in ARITH:
        counter = itertools.count()
        rec._arith.append(counter)
        setattr(groups.GroupSpec, meth,
                _counting(rec, getattr(groups.GroupSpec, meth), counter))
    trails = mods["trails"]
    trails.Trail.__post_init__ = _counting(rec, trails.Trail.__post_init__,
                                           rec._trails)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

class Spans:
    """Spans of one process, loaded from a dump."""

    def __init__(self, data: dict):
        self.names = [data["names"][i] for i in data["name"]]
        self.start = data["start"]
        self.end = data["end"]
        self.parent = data["parent"]
        self.counters = data["counters"]

    def _dur(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def calls(self, names) -> int:
        return sum(1 for n in self.names if n in names)

    def total(self, names) -> float:
        """Time inside spans of these names, nested ones counted once."""
        out = 0.0
        for i, n in enumerate(self.names):
            if n not in names:
                continue
            p = self.parent[i]
            while p >= 0 and self.names[p] not in names:
                p = self.parent[p]
            if p < 0:
                out += self._dur(i)
        return out

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus that of their direct children."""
        out = 0.0
        for i, n in enumerate(self.names):
            if n == name:
                out += self._dur(i)
            p = self.parent[i]
            if p >= 0 and self.names[p] == name:
                out -= self._dur(i)
        return out


def load(path) -> Spans:
    with open(path, encoding="utf-8") as fh:
        return Spans(json.load(fh))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(dumps: list[Spans]) -> dict[str, float]:
    """Per-layer metrics summed over the span dumps of one traced iteration.

    ``.s`` values are seconds inside the named calls, summed over every
    process; a metric whose layer the workload never calls reads 0.
    """
    def tot(*names):
        return sum(d.total(set(names)) for d in dumps)

    def cnt(*names):
        return sum(d.calls(set(names)) for d in dumps)

    def ctr(key):
        return sum(d.counters.get(key, 0) for d in dumps)

    def self_s(name):
        return sum(d.self_time(name) for d in dumps)

    scan_s = tot("search.extremal_scan")
    rainbow = [f"search.{f}" for f in RAINBOW]
    rainbow_s = tot(*rainbow)
    mc_s = tot("expectation.monte_carlo_estimate")
    builders = [f"constructions.{f}" for f in BUILDERS]
    ham = ("search.is_hamiltonian_cayley.dp", "search.is_hamiltonian_cayley.backtrack")
    return {
        "groups.abelian_groups_in_range.s": tot("groups.abelian_groups_in_range"),
        "groups.arith.calls": ctr("groups.arith.calls"),
        "groups.span.calls": cnt("groups.span"),
        "groups.span.s": tot("groups.span"),
        "trails.Trail.calls": ctr("trails.Trail.calls"),
        "trails.labels.s": tot("trails.sum_labels", "trails.diff_labels"),
        "constructions.build.calls": cnt(*builders),
        "constructions.build.s": tot(*builders),
        "search.extremal_scan.s": scan_s,
        "search.extremal_scan.cycles_per_s": _ratio(ctr("search.extremal_scan.cycles"), scan_s),
        "search.enumerate_cycles.s": tot("search.enumerate_cycles"),
        "search.enumerate_cycles.cycles": ctr("search.enumerate_cycles.items"),
        "search.minimum_connection_size.s": tot("search.minimum_connection_size"),
        "search.is_hamiltonian_cayley.calls": cnt(*ham),
        "search.is_hamiltonian_cayley.dp.s": tot(ham[0]),
        "search.is_hamiltonian_cayley.backtrack.s": tot(ham[1]),
        "search.is_connected_cayley.structural.s": tot("search.is_connected_cayley.structural"),
        "search.is_connected_cayley.bfs.s": tot("search.is_connected_cayley.bfs"),
        "search.rainbow.s": rainbow_s,
        "search.rainbow.nodes": ctr("search.rainbow.nodes"),
        "search.rainbow.nodes_per_s": _ratio(ctr("search.rainbow.nodes"), rainbow_s),
        "expectation.expected_distinct_diffs.calls": cnt("expectation.expected_distinct_diffs"),
        "expectation.expected_distinct_diffs.s": tot("expectation.expected_distinct_diffs"),
        "expectation.expected_distinct_sums.s": tot("expectation.expected_distinct_sums"),
        "expectation.asymptotic_residual.self_s": self_s("expectation.asymptotic_residual"),
        "expectation.monte_carlo_estimate.s": mc_s,
        "expectation.monte_carlo_estimate.trials_per_s": _ratio(
            ctr("expectation.monte_carlo_estimate.trials"), mc_s),
        "expectation.count_constrained_cycles.s": tot("expectation.count_constrained_cycles"),
        "verify.verify_group.self_s": self_s("verify.verify_group"),
        "verify.records": ctr("verify.records"),
        "verify.fail": ctr("verify.fail"),
        "verify.inconclusive": ctr("verify.inconclusive"),
        "cache.cache_get.s": tot("cache.cache_get"),
        "cache.hits": ctr("cache.hits"),
        "cache.cache_put.s": tot("cache.cache_put"),
        "cache.misses": ctr("cache.misses"),
        "cache.bytes": ctr("cache.bytes"),
        "cli.import.s": ctr("cli.import.s"),
        "cli.main.self_s": self_s("cli.main"),
    }
