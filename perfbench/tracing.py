"""Spans and counters around the library's public functions.

Tracing rebinds the module attribute that callers look up (for example
`ceei.lp.solve_lp`), so calls from other modules and from inside the same
module both pass through the wrapper.  Names imported with `from x import y`
are not affected, which is why only functions reached through a module
attribute or a module-global name are wrapped.  Spans are kept in memory as
[name, start, end, parent] and written out when the run ends; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import cProfile
import fractions
import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "op"

TRACED = {
    "lp": ("solve_lp",),
    "additive": ("search_equilibrium", "allocation_for_prices", "verify_equilibrium",
                 "best_affordable_bundle", "price_support_lp", "prices_for_allocation"),
    "leontief": ("allocation_for_prices", "optimal_welfare_equilibrium", "verify_equilibrium",
                 "compute_equilibrium", "compute_equilibrium_apx_welfare", "compute_equilibrium_prealloc",
                 "prices_for_allocation"),
    "oracle": ("enumerate_allocations", "equilibrium_exists_bruteforce", "max_welfare_equilibrium_bruteforce"),
    "io": ("market_from_json", "solution_from_json", "solution_to_json", "market_to_json"),
}
# Every gadget generator is one layer, "reductions.gen".
GENERATORS = ("partition_to_leontief", "setpacking_to_leontief", "subsetsum_to_additive_verify",
              "x3c_to_additive", "partition_to_additive_prices", "subsetsum_to_additive_allocation")
FOUND = ("additive.prices_for_allocation", "leontief.prices_for_allocation")


def layer_names():
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    return names + ["reductions.gen"]


class Tracer:
    def __init__(self, c):
        self.c = c
        self.spans = []
        self.stack = []
        self.calls = Counter()
        self.yielded = 0
        self.found = Counter()
        self.lp = []  # (rows, cols, status, value > 0) per solve
        self._saved = []

    def __enter__(self):
        for mod, fns in TRACED.items():
            for fn in fns:
                self._wrap(getattr(self.c, mod), fn, f"{mod}.{fn}")
        for fn in GENERATORS:
            self._wrap(self.c.reductions, fn, "reductions.gen")
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _open(self, name):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index):
        self.stack.pop()
        self.spans[index][2] = perf_counter()

    def op(self, fn):
        """Run one op under a root span; spans of one op share that root."""
        index = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(index)

    def _wrap(self, module, attr, name):
        original = getattr(module, attr)
        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                it = original(*args, **kwargs)
                while True:  # one span per resumption of the generator body
                    index = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    self.yielded += 1
                    yield item
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                index = self._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(index)
                self._observe(name, args, result)
                return result
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def _observe(self, name, args, result):
        if name == "lp.solve_lp":
            problem = args[0]
            positive = result.status == "optimal" and result.value > 0
            self.lp.append((len(problem.constraints), problem.num_vars, result.status, positive))
        elif name in FOUND and result is not None:
            self.found[name] += 1

    def self_times(self, scale):
        """Self time per name, each span's part scaled by `scale(seconds, start)`."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            totals[name] += scale(end - start - child[k], start)
        return totals

    def metrics(self, scale):
        self_s = self.self_times(scale)
        op_total = sum(self_s.values()) or 1.0
        out = {}
        for name in layer_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.share"] = self_s[name] / op_total
        out[f"{ROOT}.share"] = self_s[ROOT] / op_total
        solves = len(self.lp) or 1
        out["lp.solve_lp.rows_mean"] = sum(r for r, _, _, _ in self.lp) / solves
        out["lp.solve_lp.cols_mean"] = sum(c for _, c, _, _ in self.lp) / solves
        out["lp.solve_lp.positive_ratio"] = sum(p for *_, p in self.lp) / solves
        out["lp.solve_lp.infeasible_ratio"] = sum(s == "infeasible" for _, _, s, _ in self.lp) / solves
        for name in FOUND:
            out[f"{name}.found_ratio"] = self.found[name] / (self.calls[name] or 1)
        out["oracle.enumerate_allocations.yielded"] = self.yielded
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": [[index[n], a, b, p] for n, a, b, p in self.spans]}, fh)


def rational_calls(fn):
    """Python-level calls into `fractions` while `fn` runs, under cProfile.

    Only the count is used: the profiler's own per-call cost inflates the
    time share of these many small calls.
    """
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    prof.create_stats()
    return sum(stat[1] for (path, _, _), stat in prof.stats.items() if path == fractions.__file__)
