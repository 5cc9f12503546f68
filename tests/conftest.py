import itertools
import os
import subprocess
import sys
from enum import IntEnum
from pathlib import Path

import pytest

from ceei.core import make_market
from ceei.reductions import X3CInstance


class Id(IntEnum):
    """An int subclass, which no entry point takes as a buyer, item or
    variable id."""

    A = 0
    B = 1


def _child_env(*unset):
    """This process's environment less the variables named in `unset`, with
    this checkout's `src` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {key: value for key, value in os.environ.items() if key not in unset}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return env


def run_script(script, timeout):
    """Standard output of `script` run in a fresh interpreter on this
    checkout's `src`; a run past `timeout` seconds fails the test rather
    than hanging the suite, and a nonzero exit fails it with the child's
    exit code and standard error."""
    try:
        proc = subprocess.run([sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"not finished in {timeout} s")
    if proc.returncode:
        pytest.fail(f"child exited with status {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def run_cli(argv, timeout, entry=("-m", "ceei"), unset=(), stdout=subprocess.PIPE):
    """Exit code, standard output and standard error, as bytes, of the CLI
    run on `argv` in a fresh interpreter on this checkout's `src`, started
    with the interpreter arguments `entry` and without the environment
    variables named in `unset`.  Standard output goes to `stdout`, and is
    returned as None unless piped.  A run past `timeout` seconds fails the
    test rather than hanging the suite."""
    try:
        proc = subprocess.run([sys.executable, *entry, *argv], env=_child_env(*unset),
                              stdout=stdout, stderr=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"not finished in {timeout} s")
    return proc.returncode, proc.stdout, proc.stderr


def count_calls(monkeypatch, owner, name):
    """Count the calls to `owner.name`, a module's function or a class's
    method, for the rest of the test: each call goes through and adds one
    entry to the list returned, whose length is the count."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def demand_market(demands, m, market_class="leontief"):
    """Market whose buyers value exactly the given item sets, at 1 each."""
    rows = [[1 if j in d else 0 for j in range(m)] for d in demands]
    return make_market(rows, market_class)


def leontief_profile_corpus(buyer_counts=(1, 2, 3), item_counts=(1, 2, 3, 4)):
    """Every demand-set profile with unit values: the exhaustive small corpus."""
    for n in buyer_counts:
        for m in item_counts:
            subsets = [frozenset(c)
                       for size in range(1, m + 1)
                       for c in itertools.combinations(range(m), size)]
            for profile in itertools.product(subsets, repeat=n):
                yield demand_market(profile, m), profile


def additive_corpus():
    """Every additive market with n <= 2, m <= 3 and values 0..3, then every
    509th one with n = 2, m = 4."""
    for n, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)):
        for flat in itertools.product(range(4), repeat=n * m):
            yield make_market([flat[i * m:(i + 1) * m] for i in range(n)], "additive")
    for flat in list(itertools.product(range(4), repeat=8))[::509]:
        yield make_market([flat[:4], flat[4:]], "additive")


def oracle_corpus_stride():
    """Every 11th market of the Leontief profile corpus and every 13th of
    the additive corpus: the markets both brute-force searches run on in
    the `corpus->oracle` golden family."""
    return [*[market for market, _ in leontief_profile_corpus()][::11], *list(additive_corpus())[::13]]


def multisets(max_len=5, max_value=9):
    """Every multiset of 1..max_len values drawn from 1..max_value: the
    source-problem instances of the additive reduction families."""
    for k in range(1, max_len + 1):
        yield from itertools.combinations_with_replacement(range(1, max_value + 1), k)


def x3c_family():
    """Every X3C instance of 1..3 triples, repeats allowed, over a universe
    of 3 or 6: the source-problem instances of the x3c->additive family."""
    cases = []
    for cover_size in (1, 2):
        universe = 3 * cover_size
        triples = [frozenset(c) for c in itertools.combinations(range(1, universe + 1), 3)]
        for k in (1, 2, 3):
            for family in itertools.combinations_with_replacement(triples, k):
                cases.append(X3CInstance(universe, family))
    return cases


def example1_market():
    """3 buyers, 4 items; the worked utility example."""
    return make_market([
        [1, 0, 0, 0],
        [0, 2, 0, 3],
        ["1/2", "5/2", 5, 0],
    ], "leontief")


def example2_market():
    """6 buyers, 8 items; the worked construction example."""
    return demand_market([{0}, {1}, {1, 2}, {1, 2}, {3, 4, 5}, {5, 6, 7}], 8)


def example3_market(n):
    """n buyers demanding consecutive item pairs; equilibria range from
    welfare 1 to welfare n."""
    return demand_market([{2 * i, 2 * i + 1} for i in range(n)], 2 * n)


def example4_market():
    """2 buyers with identical two-item demands plus a filler item; every
    equilibrium has zero welfare."""
    return make_market([[1, 1, 0], [1, 1, 0]], "leontief")
