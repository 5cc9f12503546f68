import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceei import leontief, oracle
from ceei.core import (
    SearchCapExceeded,
    SearchCaps,
    bundle_utility,
    demand_items,
    make_allocation,
    make_market,
    make_prices,
    rational,
    social_welfare,
)
from ceei.reductions import PartitionInstance, SetPackingInstance, partition_to_leontief, setpacking_to_leontief

from conftest import (
    demand_market,
    example1_market,
    example2_market,
    example3_market,
    example4_market,
)


class TestDemandSets:
    def test_example1(self):
        market = example1_market()
        assert [demand_items(market, i) for i in range(market.n)] == [{0}, {1, 3}, {0, 1, 2}]

    def test_single_item(self):
        assert demand_items(make_market([[1]], "leontief"), 0) == {0}

    def test_full_row(self):
        market = make_market([[1, 1, 1]], "leontief")
        assert demand_items(market, 0) == {0, 1, 2}

    def test_wrong_class_rejected(self):
        with pytest.raises(ValueError):
            leontief.compute_equilibrium(make_market([[1]], "additive"))


class TestUtility:
    def test_example1_buyer2(self):
        assert bundle_utility(example1_market(), 1, {1, 3}) == rational(1, 3)

    def test_example1_buyer1(self):
        assert bundle_utility(example1_market(), 0, {0}) == 1

    def test_example1_partial_demand_is_zero(self):
        assert bundle_utility(example1_market(), 2, {0, 1}) == 0


class TestVerify:
    def test_example2(self):
        market = example2_market()
        x = make_allocation([[0], [1], [2], [3], [4], [5, 6, 7]])
        p = make_prices([1, 1, 1, 1, 1, "1/3", "1/3", "1/3"])
        assert leontief.verify_equilibrium(market, x, p).equilibrium

    def test_duplicate_singleton_demands_report_witness(self):
        market = demand_market([{0}, {0}], 2)
        report = leontief.verify_equilibrium(market, make_allocation([[0], [1]]), make_prices([1, 1]))
        assert not report.equilibrium
        assert report.violation.kind == "suboptimal-bundle"
        assert report.violation.buyer == 1
        assert report.violation.witness == {0}

    def test_example4_zero_welfare_equilibrium(self):
        market = example4_market()
        x = make_allocation([[0], [1, 2]])
        assert leontief.verify_equilibrium(market, x, make_prices([1, 1, 0])).equilibrium

    def test_violation_order_feasibility_first(self):
        market = demand_market([{0}, {0}], 2)
        report = leontief.verify_equilibrium(market, make_allocation([[0], [0]]), make_prices([1, 0]))
        assert report.violation.kind == "infeasible-allocation"

    def test_violation_order_clearing_before_budgets(self):
        market = demand_market([{0}], 2)
        report = leontief.verify_equilibrium(market, make_allocation([[]]), make_prices([0, 1]))
        assert report.violation.kind == "item-unsold-positive-price"


class TestPricesForAllocation:
    def test_example4_full_demand_unsupportable(self):
        assert leontief.prices_for_allocation(example4_market(), make_allocation([[0, 1], [2]])) is None

    def test_example4_split_supportable(self):
        market = example4_market()
        x = make_allocation([[0], [1, 2]])
        prices = leontief.prices_for_allocation(market, x)
        assert prices is not None
        assert prices.prices[0] == 1
        assert prices.prices[1] + prices.prices[2] == 1
        assert leontief.verify_equilibrium(market, x, prices).equilibrium

    def test_single_buyer_forced_price(self):
        market = make_market([[1]], "leontief")
        prices = leontief.prices_for_allocation(market, make_allocation([[0]]))
        assert prices.prices == (rational(1),)

    def test_infeasible_allocation_gives_none(self):
        market = example4_market()
        assert leontief.prices_for_allocation(market, make_allocation([[0], [0, 1]])) is None


class TestAllocationForPrices:
    def test_partition_gadget_with_split(self):
        market, prices = partition_to_leontief(PartitionInstance((1, 1)))
        found = leontief.allocation_for_prices(market, prices)
        assert found.bundles == (frozenset({0}), frozenset({1}), frozenset({2}))

    def test_partition_gadget_odd_sum(self):
        market, prices = partition_to_leontief(PartitionInstance((1, 2)))
        assert leontief.allocation_for_prices(market, prices) is None

    def test_single_buyer(self):
        market = make_market([[1]], "leontief")
        found = leontief.allocation_for_prices(market, make_prices([1]))
        assert found.bundles == (frozenset({0}),)

    def test_cap_exceeded(self):
        market = demand_market([{0}], 3)
        with pytest.raises(SearchCapExceeded):
            leontief.allocation_for_prices(market, make_prices([1, 0, 0]), SearchCaps(max_items=2))


class TestComputeEquilibrium:
    def test_example2_golden(self):
        x, p = leontief.compute_equilibrium(example2_market())
        assert x.bundles == (frozenset({0}), frozenset({1}), frozenset({2}),
                             frozenset({3}), frozenset({4}), frozenset({5, 6, 7}))
        third = rational(1, 3)
        assert p.prices == (1, 1, 1, 1, 1, third, third, third)

    def test_fewer_items_than_buyers(self):
        market = demand_market([{0}, {0}], 1)
        assert leontief.compute_equilibrium(market) is None
        assert leontief.no_equilibrium_reason(market) == "m < n"

    def test_duplicate_singletons(self):
        market = demand_market([{0}, {0}], 2)
        assert leontief.compute_equilibrium(market) is None
        assert leontief.no_equilibrium_reason(market) == "duplicate singleton demand sets"

    def test_output_verifies_on_example1(self):
        market = example1_market()
        x, p = leontief.compute_equilibrium(market)
        assert leontief.verify_equilibrium(market, x, p).equilibrium
        assert leontief.no_equilibrium_reason(market) is None


class TestPrealloc:
    def test_pair_market_completion(self):
        market = example3_market(2)
        x, p = leontief.compute_equilibrium_prealloc(market, 0, {0, 1})
        assert x.bundles == (frozenset(), frozenset({2, 3}))
        assert p.prices[2] == p.prices[3] == rational(1, 2)

    def test_single_wanted_item(self):
        market = demand_market([{0, 1}, {2}], 3)
        x, p = leontief.compute_equilibrium_prealloc(market, 0, {0, 1})
        assert x.bundles[1] == {2}
        assert p.prices[2] == 1

    def test_prealloc_everything_rejected(self):
        market = demand_market([{0, 1}, {2}], 3)
        with pytest.raises(ValueError):
            leontief.compute_equilibrium_prealloc(market, 0, {0, 1, 2})

    @pytest.mark.parametrize("buyer, items", [(1.0, [1.0, 2]), (1, [1.0, 2]), (True, [0]), (1, [0, True])],
                             ids=["float-buyer", "float-item", "bool-buyer", "bool-item"])
    def test_ids_that_are_not_ints_are_refused(self, buyer, items):
        market = make_market([[1, 0, 0], [0, 1, 1]], "leontief")
        with pytest.raises(TypeError, match="not an integer"):
            leontief.compute_equilibrium_prealloc(market, buyer, items)

    def test_exhausted_demand_falls_back_to_free_item(self):
        market = demand_market([{0, 1}, {1}], 3)
        x, p = leontief.compute_equilibrium_prealloc(market, 0, {0, 1})
        assert x.bundles == (frozenset(), frozenset({2}))
        assert p.prices[2] == 1

    def test_unwanted_leftovers_get_small_prices(self):
        # last buyer ends with wanted and unwanted items: budget splits 1-eps / eps
        market = demand_market([{0}, {1}, {1, 3}], 4)
        x, p = leontief.compute_equilibrium_prealloc(market, 0, {0})
        assert x.bundles == (frozenset(), frozenset({1}), frozenset({2, 3}))
        assert p.prices[3] + p.prices[2] == 1
        assert 0 < p.prices[2] < p.prices[3]


class TestApxWelfare:
    def test_pair_market_exact(self):
        market = example3_market(2)
        x, p = leontief.compute_equilibrium_apx_welfare(market)
        assert x.bundles == (frozenset({0, 1}), frozenset({2, 3}))
        assert set(p.prices) == {rational(1, 2)}
        assert social_welfare(market, x) == 2

    def test_example4_falls_back_to_zero_welfare(self):
        market = example4_market()
        x, p = leontief.compute_equilibrium_apx_welfare(market)
        assert leontief.verify_equilibrium(market, x, p).equilibrium
        assert social_welfare(market, x) == 0

    def test_single_buyer(self):
        market = make_market([[1]], "leontief")
        x, p = leontief.compute_equilibrium_apx_welfare(market)
        assert x.bundles == (frozenset({0}),)
        assert p.prices == (rational(1),)

    def test_none_when_no_equilibrium(self):
        assert leontief.compute_equilibrium_apx_welfare(demand_market([{0}, {0}], 2)) is None

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pair_family_meets_bound(self, n):
        market = example3_market(n)
        x, p = leontief.compute_equilibrium_apx_welfare(market)
        assert leontief.verify_equilibrium(market, x, p).equilibrium
        # optimum over equilibria is n on this family; the bound is 1/n of it
        assert social_welfare(market, x) * n >= n


class TestOptimalWelfare:
    def test_pair_market(self):
        x, p, welfare = leontief.optimal_welfare_equilibrium(example3_market(2))
        assert welfare == 2
        assert leontief.verify_equilibrium(example3_market(2), x, p).equilibrium

    def test_example4_zero(self):
        assert leontief.optimal_welfare_equilibrium(example4_market())[2] == 0

    def test_overlapping_pair_gadget(self):
        market, _ = setpacking_to_leontief(SetPackingInstance((frozenset({1}), frozenset({1})), 1))
        assert leontief.optimal_welfare_equilibrium(market)[2] == 1

    def test_none_when_no_equilibrium(self):
        assert leontief.optimal_welfare_equilibrium(demand_market([{0}, {0}], 2)) is None

    def test_matches_bruteforce_on_small_markets(self):
        for market in (example3_market(2), example4_market(),
                       demand_market([{0}, {0, 1}, {1, 2, 3}], 4)):
            ours = leontief.optimal_welfare_equilibrium(market)
            theirs = oracle.max_welfare_equilibrium_bruteforce(market)
            assert ours[2] == theirs[2]

    def test_example2_has_welfare_three(self):
        assert leontief.optimal_welfare_equilibrium(example2_market())[2] == 3

    def test_deterministic_witness(self):
        market = demand_market([{0}, {0, 1}, {1, 2, 3}], 4)
        assert leontief.optimal_welfare_equilibrium(market) == leontief.optimal_welfare_equilibrium(market)

    def test_cap_exceeded(self):
        market = demand_market([{0}, {0}], 3)  # 2^3 = 8 states
        with pytest.raises(SearchCapExceeded):
            leontief.optimal_welfare_equilibrium(market, SearchCaps(max_states=3))


def _profiles(draw_m, draw_n):
    subsets = [frozenset(c) for size in range(1, draw_m + 1)
               for c in itertools.combinations(range(draw_m), size)]
    return st.lists(st.sampled_from(subsets), min_size=draw_n, max_size=draw_n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 4).flatmap(
    lambda m: st.tuples(st.just(m), _profiles(m, n))))))
def test_every_solver_output_passes_verify_and_envyfreeness(args):
    n, (m, profile) = args
    market = demand_market(profile, m)
    for solver in (leontief.compute_equilibrium, leontief.compute_equilibrium_apx_welfare):
        found = solver(market)
        if found is None:
            continue
        x, p = found
        assert leontief.verify_equilibrium(market, x, p).equilibrium
        for i in range(n):
            for j in range(n):
                spend = sum((p.prices[t] for t in x.bundles[j]), rational(0))
                if spend <= 1:
                    assert bundle_utility(market, i, x.bundles[i]) >= bundle_utility(market, i, x.bundles[j])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 3).flatmap(
    lambda m: st.tuples(st.just(m), _profiles(m, n))))))
def test_prices_for_allocation_round_trip(args):
    n, (m, profile) = args
    market = demand_market(profile, m)
    found = leontief.compute_equilibrium(market)
    if found is None:
        return
    x, _ = found
    prices = leontief.prices_for_allocation(market, x)
    assert prices is not None
    assert leontief.verify_equilibrium(market, x, prices).equilibrium


def test_weighted_markets_meet_welfare_bound():
    # non-unit values exercise the pick-highest-own-utility path
    rng = random.Random(424242)
    checked = 0
    while checked < 120:
        n = rng.choice([2, 3])
        m = rng.choice([3, 4, 5])
        rows = []
        for _ in range(n):
            chosen = set(rng.sample(range(m), rng.randint(1, m)))
            rows.append([rng.randint(1, 5) if j in chosen else 0 for j in range(m)])
        market = make_market(rows, "leontief")
        apx = leontief.compute_equilibrium_apx_welfare(market)
        if apx is None:
            continue
        x, p = apx
        assert leontief.verify_equilibrium(market, x, p).equilibrium, rows
        best = leontief.optimal_welfare_equilibrium(market)
        assert social_welfare(market, x) * n >= best[2], rows
        checked += 1
