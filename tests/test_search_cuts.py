"""The pruned assignment searches against cut-free references.

`additive.search_equilibrium`, both `allocation_for_prices` and both
`optimal_welfare_equilibrium` searches cut by bounds, screens and the
lex-leader symmetry rules.  The references here walk every owner tuple in
the assignment order (items in index order, each owned by buyer 0..n-1 and
then unsold) and apply only the definitions, so any cut that drops the
answer, or changes which tie comes first, shows up as a difference.  The
markets are drawn with repeated rows and columns, so the symmetry rules
fire, and with three distinct buyers, so the additive swap bound weighs
pairs whose values differ, and are summed, on different scales.  A fake
tally checks when `equilibrium.search` stops.  The additive tallies' packed
fields are checked step by step against the same quantities recomputed
from their definitions, and the x3c family's place, leaf and LP counts pin
which subtrees the swap bound cuts.
"""

import gc
import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ceei import additive, equilibrium, leontief, lp, oracle
from ceei.core import Allocation, make_market, make_prices, social_welfare

from ceei.reductions import (
    PartitionInstance,
    SetPackingInstance,
    partition_to_additive_prices,
    partition_to_leontief,
    setpacking_to_leontief,
    x3c_to_additive,
)

from conftest import additive_corpus, leontief_profile_corpus, x3c_family

MODULES = {"additive": additive, "leontief": leontief}
VALUES = [0, 1, 2, 3, "1/2"]
PRICES = [0, "1/4", "1/3", "1/2", "2/3", 1]


def _allocations(n, m):
    for owners in itertools.product(range(n + 1), repeat=m):
        yield Allocation(tuple(frozenset(j for j in range(m) if owners[j] == i) for i in range(n)))


def reference_search(market):
    for x in _allocations(market.n, market.m):
        prices = additive.prices_for_allocation(market, x)
        if prices is not None:
            return x, prices
    return None


def reference_allocation(market, prices):
    module = MODULES[market.market_class]
    for x in _allocations(market.n, market.m):
        if module.verify_equilibrium(market, x, prices).equilibrium:
            return x
    return None


def reference_welfare(market):
    module = MODULES[market.market_class]
    best = None
    for x in _allocations(market.n, market.m):
        prices = module.prices_for_allocation(market, x)
        if prices is not None and (best is None or social_welfare(market, x) > best[2]):
            best = (x, prices, social_welfare(market, x))
    return best


@st.composite
def symmetric_markets(draw, market_class):
    """A market whose rows and columns are copies of a smaller base matrix,
    and item prices that copies of a column share or draw each on its own."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4 if n < 3 else 3))
    rows, cols = draw(st.integers(1, n)), draw(st.integers(1, m))
    base = draw(st.lists(st.lists(st.sampled_from(VALUES), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    buyer_row = draw(st.lists(st.integers(0, rows - 1), min_size=n, max_size=n))
    item_col = draw(st.lists(st.integers(0, cols - 1), min_size=m, max_size=m))
    values = [[base[buyer_row[i]][item_col[j]] for j in range(m)] for i in range(n)]
    if market_class == "leontief":
        assume(all(any(v != 0 for v in row) for row in values))
    if draw(st.booleans()):
        col_price = draw(st.lists(st.sampled_from(PRICES), min_size=cols, max_size=cols))
        prices = [col_price[c] for c in item_col]
    else:
        prices = draw(st.lists(st.sampled_from(PRICES), min_size=m, max_size=m))
    return make_market(values, market_class), make_prices(prices)


@st.composite
def distinct_buyer_markets(draw):
    """An additive market of three buyers with pairwise distinct rows, none
    of them uniform, so every buyer pair has slack to spend and
    rows with and without `1/2` sit on different scales."""
    m = draw(st.integers(2, 4))
    row = st.lists(st.sampled_from(VALUES), min_size=m, max_size=m).filter(lambda r: len(set(r)) > 1)
    rows = draw(st.lists(row, min_size=3, max_size=3, unique_by=tuple))
    return make_market(rows, "additive")


SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])


@SETTINGS
@given(symmetric_markets("additive"))
def test_search_equilibrium_matches_reference(case):
    market, _ = case
    assert additive.search_equilibrium(market) == reference_search(market)


@SETTINGS
@given(distinct_buyer_markets())
def test_swap_bound_keeps_search_equilibrium(market):
    assert additive.search_equilibrium(market) == reference_search(market)


@SETTINGS
@given(distinct_buyer_markets())
def test_swap_bound_keeps_welfare_optimum(market):
    assert additive.optimal_welfare_equilibrium(market) == reference_welfare(market)


@pytest.mark.parametrize("market_class", ["additive", "leontief"])
@SETTINGS
@given(data=st.data())
def test_allocation_for_prices_matches_reference(market_class, data):
    market, prices = data.draw(symmetric_markets(market_class))
    module = MODULES[market_class]
    if data.draw(st.booleans()):  # prices supporting a drawn allocation, when it has some
        owners = data.draw(st.lists(st.integers(0, market.n), min_size=market.m, max_size=market.m))
        x = Allocation(tuple(frozenset(j for j, o in enumerate(owners) if o == i) for i in range(market.n)))
        prices = module.prices_for_allocation(market, x) or prices
    assert module.allocation_for_prices(market, prices) == reference_allocation(market, prices)


@pytest.mark.parametrize("market_class", ["additive", "leontief"])
@SETTINGS
@given(data=st.data())
def test_welfare_search_matches_reference(market_class, data):
    market, _ = data.draw(symmetric_markets(market_class))
    assert MODULES[market_class].optimal_welfare_equilibrium(market) == reference_welfare(market)


@pytest.mark.slow
def test_additive_welfare_matches_oracle():
    checked = 0
    for market in additive_corpus():
        found = additive.optimal_welfare_equilibrium(market)
        truth = oracle.max_welfare_equilibrium_bruteforce(market)
        assert (found is None) == (truth is None), market.values
        if found is not None:
            x, prices, welfare = found
            assert welfare == truth[2] == social_welfare(market, x), market.values
            assert additive.verify_equilibrium(market, x, prices).equilibrium, market.values
        checked += 1
    assert checked == 4452 + 129


def test_leontief_welfare_matches_oracle_on_corpus_stride():
    checked = 0
    for market, _ in list(leontief_profile_corpus())[::13]:
        found = leontief.optimal_welfare_equilibrium(market)
        truth = oracle.max_welfare_equilibrium_bruteforce(market)
        assert (found is None) == (truth is None), market.values
        if found is not None:
            x, prices, welfare = found
            assert welfare == truth[2] == social_welfare(market, x), market.values
            assert leontief.verify_equilibrium(market, x, prices).equilibrium, market.values
        checked += 1
    assert checked == 312


class LoggingTally:
    """A tally that bounds every inner node by `top`, values a leaf at
    `worth[owners]` (0 when absent), accepts every place and logs it."""

    scale = 1

    def __init__(self, m, top, worth):
        self.m, self.top, self.worth = m, top, worth
        self.bound, self.owners, self.placed = top, [], []

    def place(self, j, owner):
        self.owners.append(owner)
        self.placed.append(tuple(self.owners))
        self.bound = self.worth.get(tuple(self.owners), 0) if j == self.m - 1 else self.top
        return True

    def remove(self, j, owner):
        self.owners.pop()

    def screen(self):
        return True


DISTINCT = make_market([[1, 2, 3], [4, 5, 6]], "additive")  # no identical buyers or items
TUPLES = [t for k in (1, 2, 3) for t in itertools.product(range(2), repeat=k)]
LEAVES = [t for t in TUPLES if len(t) == 3 and len(set(t)) == 2]  # no empty bundle


def _owners(x):
    return tuple(next(i for i, b in enumerate(x.bundles) if j in b) for j in range(3))


def test_first_hit_search_places_nothing_after_its_answer():
    tally = LoggingTally(3, 0, {})
    answer = LEAVES[2]
    found = equilibrium.search(DISTINCT, tally, lambda x: "p" if _owners(x) == answer else None)
    assert _owners(found[0]) == answer and found[1:] == ("p", 0)
    assert tally.placed[-1] == answer


@pytest.mark.parametrize("hit", [None, 3])
def test_welfare_search_stops_only_at_the_root_bound(hit):
    worth = {leaf: 1 + t for t, leaf in enumerate(LEAVES)}  # each leaf beats the one before
    top = len(LEAVES) + 1
    if hit is not None:
        worth[LEAVES[hit]] = top
    tally = LoggingTally(3, top, worth)
    accepted = []
    found = equilibrium.search(DISTINCT, tally, lambda x: accepted.append(_owners(x)) or "p")
    if hit is None:
        assert tally.placed == sorted(TUPLES) and accepted == LEAVES
        assert _owners(found[0]) == LEAVES[-1] and found[2] == len(LEAVES)
    else:
        assert tally.placed[-1] == LEAVES[hit] and accepted == LEAVES[:hit + 1]
        assert _owners(found[0]) == LEAVES[hit] and found[2] == top


def _search_calls():
    partition = PartitionInstance((1, 2, 3))
    packing = SetPackingInstance((frozenset({1, 2}), frozenset({2, 3}), frozenset({3})), 1)
    return [
        lambda: additive.search_equilibrium(x3c_to_additive(x3c_family()[40])),
        lambda: additive.allocation_for_prices(*partition_to_additive_prices(partition)),
        lambda: leontief.allocation_for_prices(*partition_to_leontief(partition)),
        lambda: leontief.optimal_welfare_equilibrium(setpacking_to_leontief(packing)[0]),
    ]


@pytest.mark.parametrize("k", range(4))
def test_search_leaves_no_reference_cycle(k):
    """A search frees its walk's state on return, so a long run of searches
    leaves nothing for the cyclic collector."""
    call = _search_calls()[k]
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


# Denominators 7 and 9 and values of 10^12 give a common scale of 63 and
# fields over 40 bits wide.
WIDE_VALUES = [0, 1, 3, "1/7", "1/9", "5/9", 10**12, "1000000000000/7"]


@st.composite
def wide_markets(draw):
    """An additive market of up to 4 buyers, some of them identical, with
    zero-value items and mixed denominators."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(st.sampled_from(WIDE_VALUES), min_size=m, max_size=m), min_size=1, max_size=n))
    rows = draw(st.lists(st.sampled_from(base), min_size=n, max_size=n))
    return make_market(rows, "additive")


def tally_reference(market, owners):
    """From the definitions, for items 0..len(owners)-1 placed with item j
    owned by owners[j]: whether some buyer pair's swap excess exceeds its
    slack for the items not yet placed, whether the envy screen passes,
    and the placed items' welfare plus each remaining item's best value."""
    n, m, v = market.n, market.m, market.values
    placed = len(owners)
    cross = [[sum((v[i][j] for j in range(placed) if owners[j] == k), Fraction(0)) for k in range(n)]
             for i in range(n)]
    cut = any(cross[i][k] - cross[i][i] + cross[k][i] - cross[k][k]
              > sum(abs(v[i][j] - v[k][j]) for j in range(placed, m))
              for i in range(n) for k in range(i + 1, n))
    envy_free = all(cross[i][k] <= cross[i][i] for i in range(n) for k in range(n))
    welfare = sum(cross[i][i] for i in range(n)) + sum(max(v[i][j] for i in range(n)) for j in range(placed, m))
    return cut, envy_free, welfare


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_packed_tallies_match_the_definitions(data):
    """Random place/remove walks in the search's item order.  The screen is
    compared after every step, the bound at the root and after each place
    (where the search reads it).  At a leaf no slack is left, so the swap
    test also cuts; a cut leaf must fail the envy screen, and an uncut one
    has the exact welfare as its bound."""
    market = data.draw(wide_markets())
    steps = data.draw(st.lists(st.integers(-1, market.n - 1), max_size=4 * market.m))
    value, envy = tallies = additive._ValueTally(market), additive._EnvyTally(market)
    owners = []
    cut, envy_free, welfare = tally_reference(market, owners)
    assert not cut and Fraction(value.bound, value.scale) == welfare and envy.bound == 0
    for step in steps:
        if step < 0 and owners:
            j, owner = len(owners) - 1, owners.pop()
            for tally in tallies:
                tally.remove(j, owner)
        elif step >= 0 and len(owners) < market.m:
            owners.append(step)
            for tally in tallies:
                assert tally.place(len(owners) - 1, step)
        cut, envy_free, welfare = tally_reference(market, owners)
        for tally, worth in ((value, welfare), (envy, 0)):
            assert tally.screen() == envy_free, owners
            if step < 0:
                continue
            if len(owners) < market.m:
                assert tally.bound == (-1 if cut else worth * tally.scale), owners
            elif tally.bound == -1:
                assert not envy_free, owners
            else:
                assert tally.bound == worth * tally.scale, owners


def test_x3c_family_cuts_are_pinned_by_count(monkeypatch):
    """Over the whole x3c->additive family the packed swap bound places the
    same items and solves the same LPs as the per-pair loop it replaced
    (1,395,754 places, 213 LPs); it may only cut more leaves, which the
    envy screen rejects anyway: the loop screened 557,649.  Price recovery
    enters the simplex through `lp._solve_at_origin`, so an LP solve is a
    call to it or to `lp.solve_lp`."""
    counts = dict.fromkeys(("place", "screen", "lp"), 0)
    place, screen = additive._EnvyTally.place, additive._EnvyTally.screen
    solve_lp, solve_at_origin = lp.solve_lp, lp._solve_at_origin

    def counted(key, f):
        def call(*args):
            counts[key] += 1
            return f(*args)
        return call

    monkeypatch.setattr(additive._EnvyTally, "place", counted("place", place))
    monkeypatch.setattr(additive._EnvyTally, "screen", counted("screen", screen))
    monkeypatch.setattr(lp, "solve_lp", counted("lp", solve_lp))
    monkeypatch.setattr(lp, "_solve_at_origin", counted("lp", solve_at_origin))
    for inst in x3c_family():
        additive.search_equilibrium(x3c_to_additive(inst))
    assert counts["place"] == 1_395_754 and counts["lp"] == 213
    assert counts["screen"] <= 557_649
