import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceei import additive, oracle
from ceei.core import (
    SearchCapExceeded,
    SearchCaps,
    bundle_utility,
    make_allocation,
    make_market,
    make_prices,
    rational,
)
from ceei.reductions import (
    PartitionInstance,
    SubsetSumInstance,
    X3CInstance,
    partition_to_additive_prices,
    subsetsum_to_additive_allocation,
    subsetsum_to_additive_verify,
    x3c_to_additive,
)

from conftest import run_script


class TestUtility:
    def test_sum(self):
        market = make_market([[3, 2]], "additive")
        assert bundle_utility(market, 0, {0, 1}) == 5

    def test_empty_bundle(self):
        market = make_market([[3, 2]], "additive")
        assert bundle_utility(market, 0, ()) == 0

    def test_third_valued_triple_is_worth_one(self):
        market = x3c_to_additive(X3CInstance(3, (frozenset({1, 2, 3}),)))
        assert bundle_utility(market, 0, {0, 1, 2}) == 1


class TestBestAffordableBundle:
    def test_prefers_value_within_budget(self):
        market = make_market([[2, 3]], "additive")
        bundle, value = additive.best_affordable_bundle(market, 0, make_prices(["1/2", "3/4"]))
        assert (bundle, value) == ({1}, 3)

    def test_everything_free(self):
        market = make_market([[2, 0, 3]], "additive")
        bundle, value = additive.best_affordable_bundle(market, 0, make_prices([0, 0, 0]))
        assert bundle == {0, 2}
        assert value == 5

    def test_subset_sum_gadget_deviation(self):
        market, _, prices = subsetsum_to_additive_verify(SubsetSumInstance((1, 2), 3))
        bundle, value = additive.best_affordable_bundle(market, 0, prices)
        assert bundle == {1, 2}
        assert value == 3  # beats the assigned item worth 2

    @pytest.mark.parametrize("buyer", [-1, 2])
    def test_buyer_out_of_range(self, buyer):
        market = make_market([[1, 0], [0, 5]], "additive")
        with pytest.raises(ValueError, match="buyer out of range"):
            additive.best_affordable_bundle(market, buyer, make_prices([1, 1]))

    @pytest.mark.parametrize("buyer", [True, 1.0])
    def test_buyer_that_is_not_an_int(self, buyer):
        market = make_market([[1, 0], [0, 5]], "additive")
        with pytest.raises(TypeError, match="not an integer"):
            additive.best_affordable_bundle(market, buyer, make_prices([1, 1]))

    def test_enumeration_cap(self):
        market = make_market([[1] * 4], "additive")
        with pytest.raises(SearchCapExceeded):
            additive.best_affordable_bundle(market, 0, make_prices([0] * 4), SearchCaps(max_enum_items=3))

    def test_best_response_at_the_enumeration_cap_builds_no_table_of_every_subset(self):
        # at the cap of 22 items, values 1001..1022 at prices 1/11: the best
        # affordable bundle is the 11 most valuable items; two tables over
        # all 2^22 subsets raised peak RSS by 160 to 190 MB, while the walk
        # holds only its stack
        script = (
            "import json, resource\n"
            "from ceei import additive, io\n"
            "from ceei.core import make_market, make_prices\n"
            "market = make_market([list(range(1001, 1023))], 'additive')\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "bundle, value = additive.best_affordable_bundle(market, 0, make_prices(['1/11'] * 22))\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(json.dumps([sorted(bundle), io.format_rational(value), after - before]))\n"
        )
        bundle, value, rise_kb = json.loads(run_script(script, timeout=60))
        assert (bundle, value) == (list(range(11, 22)), 11187)
        assert rise_kb < 16 * 1024

    def test_cap_error_carries_its_numbers(self):
        market = make_market([[1] * 4], "additive")
        with pytest.raises(SearchCapExceeded) as info:
            additive.verify_equilibrium(market, make_allocation([[0, 1, 2, 3]]), make_prices([0] * 4),
                                        SearchCaps(max_enum_items=3))
        assert (info.value.cap, info.value.size, info.value.limit) == ("max_enum_items", 4, 3)
        assert str(info.value) == "bundle enumeration, m items: 4 exceeds the cap max_enum_items = 3"


class TestVerify:
    def test_gadget_with_subset_sum_hit(self):
        market, x, p = subsetsum_to_additive_verify(SubsetSumInstance((1, 2), 3))
        report = additive.verify_equilibrium(market, x, p)
        assert not report.equilibrium
        assert report.violation.kind == "suboptimal-bundle"
        assert report.violation.buyer == 0
        assert report.violation.witness == {1, 2}

    def test_gadget_without_subset_sum_hit(self):
        market, x, p = subsetsum_to_additive_verify(SubsetSumInstance((2, 2), 3))
        assert additive.verify_equilibrium(market, x, p).equilibrium

    def test_single_buyer_single_item(self):
        market = make_market([[5]], "additive")
        report = additive.verify_equilibrium(market, make_allocation([[0]]), make_prices([1]))
        assert report.equilibrium

    def test_witness_is_sound(self):
        market, x, p = subsetsum_to_additive_verify(SubsetSumInstance((1, 2), 3))
        violation = additive.verify_equilibrium(market, x, p).violation
        k, witness = violation.buyer, violation.witness
        spend = sum((p.prices[j] for j in witness), rational(0))
        assert spend <= 1
        assert bundle_utility(market, k, witness) > bundle_utility(market, k, x.bundles[k])


class TestPricesForAllocation:
    def test_gadget_with_hit_has_no_prices(self):
        market, x = subsetsum_to_additive_allocation(SubsetSumInstance((1, 2), 2))
        assert additive.prices_for_allocation(market, x) is None

    def test_gadget_without_hit_has_prices(self):
        market, x = subsetsum_to_additive_allocation(SubsetSumInstance((2, 2), 3))
        prices = additive.prices_for_allocation(market, x)
        assert prices is not None
        assert additive.verify_equilibrium(market, x, prices).equilibrium

    def test_single_buyer(self):
        market = make_market([[5]], "additive")
        prices = additive.prices_for_allocation(market, make_allocation([[0]]))
        assert prices.prices == (rational(1),)

    def test_many_deviator_rows_are_priced_quickly(self):
        # rows 1..14 and 14..1, each buyer holding the half it values more:
        # one LP with thousands of deviator rows, which took over 10 s while
        # each deviator row carried a phase-1 artificial
        script = (
            "import json\n"
            "from ceei import additive, io\n"
            "from ceei.core import make_allocation, make_market\n"
            "market = make_market([list(range(1, 15)), list(range(14, 0, -1))], 'additive')\n"
            "x = make_allocation([list(range(7, 14)), list(range(7))])\n"
            "print(json.dumps(io.prices_to_obj(additive.prices_for_allocation(market, x))))\n"
        )
        assert json.loads(run_script(script, timeout=5)) == ["1/7"] * 14

    def test_listing_many_deviators_keeps_memory_small(self):
        # a 10-item bundle of a 1x20 market has 184,755 minimal deviators;
        # held as one frozenset each, their listing raised peak RSS by about
        # 180 MB, and held as int masks by about 50 MB
        script = (
            "import resource\n"
            "from ceei import additive\n"
            "from ceei.core import make_market\n"
            "market = make_market([list(range(1001, 1021))], 'additive')\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "found = additive._minimal_deviating_bundles(market, 0, frozenset(range(10)))\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(len(found), after - before)\n"
        )
        count, rise_kb = map(int, run_script(script, timeout=60).split())
        assert count == 184_755
        assert rise_kb < 100 * 1024

    def test_listing_at_the_enumeration_cap_builds_no_table_of_every_subset(self):
        # at the cap of 22 items, the bundle of items 0..18 and the big item
        # has 21 minimal deviators (the big item and 20 of the 21 unit
        # items); one table over all 2^22 subsets raised peak RSS by 64 to
        # 96 MB, while the walk holds only its stack and its output
        script = (
            "import resource\n"
            "from ceei import additive\n"
            "from ceei.core import make_market\n"
            "market = make_market([[1] * 21 + [10**6]], 'additive')\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "found = additive._minimal_deviating_bundles(market, 0, frozenset([*range(19), 21]))\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(len(found), after - before)\n"
        )
        count, rise_kb = map(int, run_script(script, timeout=60).split())
        assert count == 21
        assert rise_kb < 16 * 1024

    def test_listing_beyond_the_enumeration_cap_takes_work_bounded_by_its_output(self):
        # 40 items, past the cap, so only the private listing runs: the
        # bundle of items 0..36 and the big item has 39 minimal deviators
        # (the big item and 38 of the 39 unit items); two half tables of
        # 2^20 subsets each raised peak RSS by about 250 MB, and a walk
        # that does not stop at bundles unable to pass the limit ran past
        # 20 s
        script = (
            "import resource\n"
            "from ceei import additive\n"
            "from ceei.core import make_market\n"
            "market = make_market([[1] * 39 + [10**6]], 'additive')\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "found = additive._minimal_deviating_bundles(market, 0, frozenset([*range(37), 39]))\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(len(found), after - before)\n"
        )
        count, rise_kb = map(int, run_script(script, timeout=10).split())
        assert count == 39
        assert rise_kb < 16 * 1024

    def test_enumeration_cap_bounds_the_first_enumeration(self):
        # buyer 1's bundle {1, 2} contains buyer 0's minimal deviator {1, 2},
        # so the allocation is rejected without an LP -- but only after an
        # enumeration over m = 3 items, above the cap of 2
        market = make_market([[1, 1, 1], [1, 1, 1]], "additive")
        with pytest.raises(SearchCapExceeded):
            additive.prices_for_allocation(market, make_allocation([[0], [1, 2]]),
                                           SearchCaps(max_enum_items=2))


class TestAllocationForPrices:
    def test_partition_gadget_even_split_blocks(self):
        market, prices = partition_to_additive_prices(PartitionInstance((1, 1, 1, 1)))
        assert additive.allocation_for_prices(market, prices) is None

    def test_partition_gadget_no_split(self):
        market, prices = partition_to_additive_prices(PartitionInstance((1, 1, 4)))
        found = additive.allocation_for_prices(market, prices)
        assert found.bundles == (frozenset({3, 4}), frozenset({0, 1, 2}))

    def test_single_buyer(self):
        market = make_market([[5]], "additive")
        found = additive.allocation_for_prices(market, make_prices([1]))
        assert found.bundles == (frozenset({0}),)

    @pytest.mark.parametrize("values, bundles", [
        ((1, 2, 3), None),  # an even split: 8 best responses without the memo
        ((2,), (frozenset({1, 2}), frozenset({0}))),  # 3 without the memo
    ])
    def test_each_best_response_is_enumerated_once(self, monkeypatch, values, bundles):
        calls = []
        enumerate_best = additive.best_affordable_bundle
        monkeypatch.setattr(additive, "best_affordable_bundle", lambda market, buyer, prices, caps:
                            calls.append(buyer) or enumerate_best(market, buyer, prices, caps))
        market, prices = partition_to_additive_prices(PartitionInstance(values))
        found = additive.allocation_for_prices(market, prices)
        assert (None if found is None else found.bundles) == bundles
        assert calls, "the search must test its leaves through best_affordable_bundle"
        assert sorted(calls) == sorted(set(calls)) and len(calls) <= market.n


class TestSearchEquilibrium:
    def test_two_buyers_twelve_items_finishes(self):
        # the default caps admit this search; its first priced leaf has an
        # 839-row LP, which did not finish in minutes while each deviator
        # row carried a phase-1 artificial
        script = (
            "import json\n"
            "from ceei import additive, io\n"
            "from ceei.core import make_market\n"
            "x, p = additive.search_equilibrium(make_market([[1, 2, 3] * 4, [3, 2, 1] * 4], 'additive'))\n"
            "print(json.dumps([io.allocation_to_obj(x), io.prices_to_obj(p)]))\n"
        )
        assert json.loads(run_script(script, timeout=30)) == [
            [[2, 3, 5, 6, 8, 9, 11, 12], [1, 4, 7, 10]], ["1/4", "1/6", "1/12"] * 4,
        ]

    def test_solvable_cover_instance(self):
        market = x3c_to_additive(X3CInstance(3, (frozenset({1, 2, 3}), frozenset({1, 2, 3}))))
        found = additive.search_equilibrium(market)
        assert found is not None
        x, p = found
        assert additive.verify_equilibrium(market, x, p).equilibrium
        assert x.bundles[0] == {0, 1, 2}  # first buyer takes its triple
        assert x.bundles[1] == {3}        # second buyer takes the bonus item

    def test_two_buyers_one_item(self):
        assert additive.search_equilibrium(make_market([[1], [1]], "additive")) is None

    def test_worthless_item_can_ride_along(self):
        market = make_market([[1, 0]], "additive")
        x, p = additive.search_equilibrium(market)
        assert additive.verify_equilibrium(market, x, p).equilibrium

    def test_zero_row_buyer_still_spends_its_budget(self):
        market = make_market([[0, 0], [1, 1]], "additive")
        x, p = additive.search_equilibrium(market)
        assert additive.verify_equilibrium(market, x, p).equilibrium
        assert all(b for b in x.bundles)

    def test_uncoverable_family_has_no_equilibrium(self):
        market = x3c_to_additive(X3CInstance(6, (frozenset({1, 2, 3}), frozenset({1, 2, 4}), frozenset({1, 2, 3}))))
        assert additive.search_equilibrium(market) is None

    def test_agrees_with_oracle_when_none(self):
        # both buyers strictly prefer the first item: whoever lacks it deviates
        market = make_market([[2, 1], [2, 1]], "additive")
        assert additive.search_equilibrium(market) is None
        assert oracle.equilibrium_exists_bruteforce(market) is None

    @pytest.mark.parametrize("search", [additive.search_equilibrium, additive.optimal_welfare_equilibrium],
                             ids=["first", "welfare"])
    def test_leaves_are_priced_through_the_public_recovery(self, monkeypatch, search):
        calls = []
        recover = additive.prices_for_allocation
        monkeypatch.setattr(additive, "prices_for_allocation", lambda market, x, caps:
                            calls.append((x, caps)) or recover(market, x, caps))
        market, caps = make_market([[1, 2, 3], [3, 2, 1]], "additive"), SearchCaps(max_enum_items=3)
        x, p = search(market, caps)[:2]
        assert calls and calls[-1] == (x, caps) and all(c is caps for _, c in calls)
        assert p == recover(market, x)


# "1/3", "2/5" and "5/6" give rows whose LCM differs from every denominator in them.
value_choices = st.sampled_from([0, 1, 2, 3, "1/2", "3/2", "1/3", "2/5", "5/6"])
price_choices = st.sampled_from([0, "1/2", 1, "1/3", "2/3", "1/4"])

small_values = st.lists(
    st.lists(value_choices, min_size=2, max_size=3),
    min_size=1, max_size=2,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_values)
def test_search_agrees_with_oracle_and_is_envy_free(rows):
    market = make_market(rows, "additive")
    ours = additive.search_equilibrium(market)
    theirs = oracle.equilibrium_exists_bruteforce(market)
    assert (ours is None) == (theirs is None)
    if ours is not None:
        x, p = ours
        assert additive.verify_equilibrium(market, x, p).equilibrium
        for i in range(market.n):
            for j in range(market.n):
                spend = sum((p.prices[t] for t in x.bundles[j]), rational(0))
                if spend <= 1:
                    assert bundle_utility(market, i, x.bundles[i]) >= \
                        bundle_utility(market, i, x.bundles[j])


@settings(max_examples=60, deadline=None)
@given(small_values, st.data())
def test_violation_witnesses_recheck(rows, data):
    market = make_market(rows, "additive")
    n, m = market.n, market.m
    bundles = [[] for _ in range(n)]
    for j in range(m):
        owner = data.draw(st.integers(0, n), label=f"owner_{j}")
        if owner < n:
            bundles[owner].append(j)
    x = make_allocation(bundles)
    p = make_prices([data.draw(price_choices, label=f"p_{j}") for j in range(m)])
    report = additive.verify_equilibrium(market, x, p)
    if report.violation is not None and report.violation.kind == "suboptimal-bundle":
        k, witness = report.violation.buyer, report.violation.witness
        spend = sum((p.prices[j] for j in witness), rational(0))
        assert spend <= 1
        assert bundle_utility(market, k, witness) > bundle_utility(market, k, x.bundles[k])


def _best_affordable_reference(row, prices):
    """Plain-Fraction knapsack: first maximizer in binary subset order over
    the positively valued items, value summed as Fractions."""
    row = [Fraction(v) for v in row]
    prices = [Fraction(p) for p in prices]
    pos = [j for j, v in enumerate(row) if v > 0]
    best_mask, best = 0, Fraction(0)
    for mask in range(1, 1 << len(pos)):
        chosen = [j for t, j in enumerate(pos) if mask >> t & 1]
        value = sum((row[j] for j in chosen), Fraction(0))
        if sum((prices[j] for j in chosen), Fraction(0)) <= 1 and value > best:
            best_mask, best = mask, value
    return frozenset(j for t, j in enumerate(pos) if best_mask >> t & 1), best


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.lists(value_choices, min_size=1, max_size=6),
                 st.lists(st.sampled_from([0, 1, 2, 3, "1/2", "2/3"]), min_size=7, max_size=10)),
       st.data())
def test_best_affordable_bundle_matches_fraction_reference(row, data):
    # rows of up to 10 items with repeated values, so many bundles tie for
    # the best value and the walk's visit order decides which is returned
    prices = [data.draw(price_choices, label=f"p_{j}") for j in range(len(row))]
    market = make_market([row], "additive")
    bundle, value = additive.best_affordable_bundle(market, 0, make_prices(prices))
    assert (bundle, value) == _best_affordable_reference(row, prices)


def _minimal_deviators_reference(row, bundle):
    """By definition: the strictly better subsets of the positively valued
    items with no strictly better proper subset, by size, then by binary
    mask over those items in index order."""
    row = [Fraction(v) for v in row]
    own = sum((row[j] for j in bundle), Fraction(0))
    pos = [j for j, v in enumerate(row) if v > 0]
    subsets = [(mask, frozenset(j for t, j in enumerate(pos) if mask >> t & 1)) for mask in range(1 << len(pos))]
    better = [(mask, s) for mask, s in subsets if sum((row[j] for j in s), Fraction(0)) > own]
    minimal = [(len(s), mask, s) for mask, s in better if not any(t < s for _, t in better)]
    return [s for _, _, s in sorted(minimal, key=lambda entry: entry[:2])]


def _item_set(mask):
    return frozenset(j for j in range(mask.bit_length()) if mask >> j & 1)


def test_minimal_deviators_match_the_definition_in_order():
    # Deviators come as int masks over item indices; each mask's item set
    # is compared with the definition's.
    for m in range(1, 5):
        for row in itertools.product([0, 1, 2, Fraction(1, 2)], repeat=m):
            market = make_market([list(row)], "additive")
            for mask in range(1 << m):
                bundle = frozenset(j for j in range(m) if mask >> j & 1)
                assert [_item_set(d) for d in additive._minimal_deviating_bundles(market, 0, bundle)] == \
                    _minimal_deviators_reference(row, bundle), (row, bundle)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 2, 3, "1/2", "2/3", "7/3"]), min_size=1, max_size=10), st.data())
def test_minimal_deviators_match_the_definition_on_larger_rows(row, data):
    # up to 10 items with repeated values, so the walk meets ties in its
    # value order, stops early on bundles that cannot reach the limit, and
    # records deviators at every depth
    mask = data.draw(st.integers(0, (1 << len(row)) - 1), label="bundle")
    bundle = frozenset(j for j in range(len(row)) if mask >> j & 1)
    market = make_market([row], "additive")
    assert [_item_set(d) for d in additive._minimal_deviating_bundles(market, 0, bundle)] == \
        _minimal_deviators_reference(row, bundle)
