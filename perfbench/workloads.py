"""The four benchmark workloads: inputs, operations and reference answers.

Every input comes from one of the acceptance suite's families, enumerated
here in full.  The library sees only the generated markets and files; the
references (source-problem deciders, the Leontief existence rule, the max
packing size) are computed here in set-up.

A workload draws every stride-th element of a family from a seeded start,
after sorting the family by size and reference answer.  So each element has
the same chance 1/stride of being drawn, and the mean op time times the
family size estimates the acceptance loop without bias.  And every seed gets
the same share of each stratum, whose op costs differ by up to 4x (a search
that finds an equilibrium stops early), which keeps the spread between
seeds small.  The ops are shuffled with the same seed.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from time import perf_counter
from typing import Callable, Optional


@dataclass
class Op:
    """One closed-loop request: `run` is what the timed phase measures,
    `check` compares its output with the reference made in set-up, and
    `inproc` (cli only) is the same request through an in-process `cli.main`."""

    family: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    inproc: Optional[Callable[[], object]] = None


# --- the acceptance families ------------------------------------------------

def multisets(max_len=5, max_value=9):
    for k in range(1, max_len + 1):
        yield from itertools.combinations_with_replacement(range(1, max_value + 1), k)


def partition_family():
    return list(multisets())


def partition_even_family():
    return [v for v in multisets() if sum(v) % 2 == 0]


def subsetsum_verify_family():
    return [(v, t) for v in multisets() for t in range(1, 10)]


def subsetsum_alloc_family():
    return [(v, t) for v in multisets() for t in range(max(v), min(9, sum(v)) + 1)]


def setpacking_family():
    subsets = [frozenset(c) for size in (1, 2, 3) for c in itertools.combinations(range(1, 5), size)]
    return [sets for ns in (1, 2, 3) for sets in itertools.combinations_with_replacement(subsets, ns)]


def x3c_family():
    out = []
    for cover_size in (1, 2):
        universe = 3 * cover_size
        triples = [frozenset(c) for c in itertools.combinations(range(1, universe + 1), 3)]
        for k in (1, 2, 3):
            out.extend((universe, fam) for fam in itertools.combinations_with_replacement(triples, k))
    return out


def profile_corpus():
    """Every unit-valued demand profile with n <= 3 buyers and m <= 4 items."""
    out = []
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4):
            subsets = [frozenset(c) for size in range(1, m + 1) for c in itertools.combinations(range(m), size)]
            out.extend((m, profile) for profile in itertools.product(subsets, repeat=n))
    return out


# Loop iterations of each acceptance loop (criterion 5 families, and the
# 4,056-market corpus behind criteria 2 and 3), for the projections.
FAMILY_SIZES = {
    "partition-leontief": 2002,
    "setpacking-leontief": 679,
    "subsetsum-verify": 18018,
    "subsetsum-alloc": 4828,
    "partition-additive": 1000,
    "x3c-additive": 1773,
    "corpus": 4056,
}
BUDGET_S = {"c2": 120.0, "c5": 300.0}


def draw(rng, family, stride, decide, size=len, stratify=True):
    """(element, reference) pairs: every stride-th element from a seeded
    start, of the family sorted by (size, reference) when `stratify`."""
    if not stratify:
        return [(x, decide(x)) for x in family[rng.randrange(stride)::stride]]
    refs = {x: decide(x) for x in family}
    ordered = sorted(family, key=lambda x: (size(x), refs[x]))
    return [(x, refs[x]) for x in ordered[rng.randrange(stride)::stride]]


def exists_rule(m, demands):
    """The Leontief existence characterization: at least as many items as
    buyers and no two buyers with the same single-item demand set."""
    singles = [d for d in demands if len(d) == 1]
    return m >= len(demands) and len(singles) == len(set(singles))


class Deciders:
    """The source-problem deciders, on the families' element shapes."""

    def __init__(self, rd):
        self.rd = rd

    def subset_sum(self, x):
        return self.rd.decide_subset_sum(self.rd.SubsetSumInstance(*x))[0]

    def partition(self, values):
        return self.rd.decide_partition(self.rd.PartitionInstance(values))[0]

    def x3c(self, x):
        return self.rd.decide_x3c(self.rd.X3CInstance(*x))[0]

    def max_packing(self, sets):
        rd = self.rd
        return max(t for t in range(1, len(sets) + 1) if rd.decide_setpacking(rd.SetPackingInstance(sets, t))[0])


def values_size(x):
    return len(x[0])


def x3c_size(x):
    return x[0], len(x[1])


# --- price-recovery -----------------------------------------------------------

def setup_price_recovery(c, seed, workdir):
    rng = random.Random(seed)
    rd, additive = c.reductions, c.additive
    decide = Deciders(rd)
    ops = []
    for x, hit in draw(rng, subsetsum_alloc_family(), 12, decide.subset_sum, values_size):
        def run(inst=rd.SubsetSumInstance(*x)):
            market, alloc = rd.subsetsum_to_additive_allocation(inst)
            return market, alloc, additive.prices_for_allocation(market, alloc)

        def check(out, hit=hit):
            market, alloc, prices = out
            if prices is None:
                return hit
            return not hit and additive.verify_equilibrium(market, alloc, prices).equilibrium

        ops.append(Op("subsetsum-alloc", run, check))
    rng.shuffle(ops)
    return ops


# --- equilibrium-search -------------------------------------------------------

def setup_equilibrium_search(c, seed, workdir):
    rng = random.Random(seed)
    rd, additive, leontief = c.reductions, c.additive, c.leontief
    decide = Deciders(rd)
    ops = []

    for x, cover in draw(rng, x3c_family(), 12, decide.x3c, x3c_size):
        def run(inst=rd.X3CInstance(*x)):
            market = rd.x3c_to_additive(inst)
            return market, additive.search_equilibrium(market)

        def check(out, cover=cover):
            market, found = out
            if found is None:
                return not cover
            return cover and additive.verify_equilibrium(market, *found).equilibrium

        ops.append(Op("x3c-additive", run, check))

    for values, split in draw(rng, partition_even_family(), 6, decide.partition):
        def run(inst=rd.PartitionInstance(values)):
            return additive.allocation_for_prices(*rd.partition_to_additive_prices(inst))

        ops.append(Op("partition-additive", run, lambda out, split=split: (out is None) == split))

    for values, split in draw(rng, partition_family(), 5, decide.partition, stratify=False):
        def run(inst=rd.PartitionInstance(values)):
            return leontief.allocation_for_prices(*rd.partition_to_leontief(inst))

        ops.append(Op("partition-leontief", run, lambda out, split=split: (out is not None) == split))

    for sets, best in draw(rng, setpacking_family(), 4, decide.max_packing):
        def run(sets=sets):
            market, _ = rd.setpacking_to_leontief(rd.SetPackingInstance(sets, 1))
            return leontief.optimal_welfare_equilibrium(market)

        ops.append(Op("setpacking-leontief", run, lambda out, best=best: out is not None and out[2] == best))

    for x, hit in draw(rng, subsetsum_verify_family(), 90, decide.subset_sum, stratify=False):
        def run(inst=rd.SubsetSumInstance(*x)):
            return additive.verify_equilibrium(*rd.subsetsum_to_additive_verify(inst)).equilibrium

        ops.append(Op("subsetsum-verify", run, lambda out, hit=hit: out != hit))

    rng.shuffle(ops)
    return ops


# --- oracle-corpus ------------------------------------------------------------

def setup_oracle_corpus(c, seed, workdir):
    rng = random.Random(seed)
    leontief, oracle, core = c.leontief, c.oracle, c.core
    ops = []
    for (m, profile), exists in draw(rng, profile_corpus(), 14, lambda x: exists_rule(*x),
                                     lambda x: (len(x[1]), x[0])):
        market = core.make_market([[1 if j in d else 0 for j in range(m)] for d in profile], core.LEONTIEF)

        def run(market=market):
            t0 = perf_counter()
            constructed = leontief.compute_equilibrium(market)
            brute = oracle.equilibrium_exists_bruteforce(market)
            t1 = perf_counter()
            apx = leontief.compute_equilibrium_apx_welfare(market)
            best = oracle.max_welfare_equilibrium_bruteforce(market)
            t2 = perf_counter()
            return {"market": market, "found": (constructed, brute, apx, best), "parts": (t1 - t0, t2 - t1)}

        def check(out, exists=exists):
            market, found = out["market"], out["found"]
            if any((f is not None) != exists for f in found):
                return False
            if not exists:
                return True
            constructed, brute, apx, best = found
            for x, p in (constructed, brute, apx):
                if not leontief.verify_equilibrium(market, x, p).equilibrium:
                    return False
            return core.social_welfare(market, apx[0]) * market.n >= best[2]

        ops.append(Op("corpus", run, check))
    rng.shuffle(ops)
    return ops


# --- cli ----------------------------------------------------------------------

def _main_inproc(c, argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = c.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _main_spawn(c, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "ceei", *argv],
        cwd=c.root, env=c.child_env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _cli_check(expected_code, welfare=None):
    def check(out):
        code, stdout, stderr = out
        lines = stdout.splitlines()
        if code != expected_code or len(lines) != 1 or "Traceback" in stderr:
            return False
        doc = json.loads(lines[0])
        return welfare is None or doc.get("welfare") == str(welfare)
    return check


CLI_PER_KIND = 20
CLI_SUBCOMMANDS = ("validate", "verify", "solve", "prices-for", "alloc-for", "maxwelfare", "apxwelfare", "oracle")


def setup_cli(c, seed, workdir):
    """Gadget files written by `ceei gen` (in-process) and requests covering
    every subcommand and both classes, with the exit code each must return."""
    rng = random.Random(seed)
    decide = Deciders(c.reductions)
    workdir.mkdir(parents=True, exist_ok=True)
    requests = []  # (subcommand, argv, expected exit code, expected welfare)
    serial = itertools.count()

    def pick(family, decider, size=len, stratify=True):
        return draw(rng, family, len(family) // CLI_PER_KIND, decider, size, stratify)[:CLI_PER_KIND]

    def gen(source, *argv):
        prefix = workdir / f"g{next(serial)}"
        code, out, _ = _main_inproc(c, ["gen", source, *argv, "--out", str(prefix)])
        if code != 0:
            raise RuntimeError(f"ceei gen {source} failed")
        return json.loads(out)["written"]

    def csv(values):
        return ",".join(str(v) for v in values)

    def sets_args(sets):
        return [a for s in sets for a in ("--set", csv(sorted(s)))]

    for (universe, fam), cover in pick(x3c_family(), decide.x3c, x3c_size):
        f = gen("x3c", "--universe", str(universe), *sets_args(fam))
        requests.append(("validate", ["validate", "--market", f["market"]], 0, None))
        requests.append(("solve", ["solve", "--market", f["market"]], 0 if cover else 1, None))
    for (values, target), hit in pick(subsetsum_verify_family(), decide.subset_sum, stratify=False):
        f = gen("subsetsum-verify", "--values", csv(values), "--target", str(target))
        requests.append(("verify", ["verify", "--market", f["market"], "--alloc", f["alloc"],
                                    "--prices", f["prices"]], 1 if hit else 0, None))
    for (values, target), hit in pick(subsetsum_alloc_family(), decide.subset_sum, values_size):
        f = gen("subsetsum-alloc", "--values", csv(values), "--target", str(target))
        requests.append(("prices-for", ["prices-for", "--market", f["market"], "--alloc", f["alloc"]],
                         1 if hit else 0, None))
    for values, split in pick(partition_even_family(), decide.partition):
        f = gen("partition-prices", "--values", csv(values))
        requests.append(("alloc-for", ["alloc-for", "--market", f["market"], "--prices", f["prices"]],
                         1 if split else 0, None))
    for values, split in pick(partition_family(), decide.partition):
        f = gen("partition", "--values", csv(values))
        requests.append(("alloc-for", ["alloc-for", "--market", f["market"], "--prices", f["prices"]],
                         0 if split else 1, None))
    for sets, best in pick(setpacking_family(), decide.max_packing):
        f = gen("setpacking", *sets_args(sets), "--threshold", "1")
        ground = max(max(s) for s in sets)
        demands = [frozenset({e - 1 for e in s} | {ground + i}) for i, s in enumerate(sets)]
        code = 0 if exists_rule(ground + len(sets), demands) else 1
        requests.append(("solve", ["solve", "--market", f["market"]], code, None))
        requests.append(("maxwelfare", ["maxwelfare", "--market", f["market"]], code, best))
        requests.append(("apxwelfare", ["apxwelfare", "--market", f["market"]], code, None))

    # The oracle enumerates (n+1)^m allocations, so it gets partition gadgets
    # of at most three values: three buyers and at most four items.
    def partition_gadget_exists(values):
        shared = frozenset(range(1, len(values) + 1))
        return exists_rule(len(values) + 1, [frozenset({0}), shared, shared])

    for values, exists in pick([v for v in partition_family() if len(v) <= 3], partition_gadget_exists):
        f = gen("partition", "--values", csv(values))
        requests.append(("oracle", ["oracle", "--market", f["market"]], 0 if exists else 1, None))

    ops = [
        Op(sub, lambda argv=argv: _main_spawn(c, argv), _cli_check(code, welfare),
           inproc=lambda argv=argv: _main_inproc(c, argv))
        for sub, argv, code, welfare in requests
    ]
    rng.shuffle(ops)
    return ops


SETUPS = {
    "price-recovery": setup_price_recovery,
    "equilibrium-search": setup_equilibrium_search,
    "oracle-corpus": setup_oracle_corpus,
    "cli": setup_cli,
}


def acceptance(records, scale):
    """Projected seconds of each acceptance loop this workload samples:
    mean untraced op time, scaled by `scale(seconds, start)`, times the
    loop's size.  Criteria 2 and 3 run the corpus through the existence half
    and the welfare half of an oracle-corpus op."""
    times = {}
    for r in records:
        if r.op.family == "corpus":
            if r.out is not None:
                times.setdefault("c2", []).append(scale(r.out["parts"][0], r.start))
                times.setdefault("c3", []).append(scale(r.out["parts"][1], r.start))
        elif r.op.family in FAMILY_SIZES:
            times.setdefault(r.op.family, []).append(scale(r.latency, r.start))
    return {key: sum(values) / len(values) * FAMILY_SIZES["corpus" if key in ("c2", "c3") else key]
            for key, values in times.items()}
