import pytest

from ceei import additive, io, leontief
from ceei.core import Market, SearchCapExceeded, demand_items, rational
from ceei.reductions import (
    PartitionInstance,
    SetPackingInstance,
    SubsetSumInstance,
    X3CInstance,
    decide_partition,
    decide_setpacking,
    decide_subset_sum,
    decide_x3c,
    partition_to_additive_prices,
    partition_to_leontief,
    setpacking_to_leontief,
    subsetsum_to_additive_allocation,
    subsetsum_to_additive_verify,
    x3c_to_additive,
)

T123 = frozenset({1, 2, 3})
T124 = frozenset({1, 2, 4})


class TestInstanceInvariants:
    def test_partition_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            PartitionInstance(())
        with pytest.raises(ValueError):
            PartitionInstance((1, 0))

    def test_subset_sum_rejects_bad_target(self):
        with pytest.raises(ValueError):
            SubsetSumInstance((1,), 0)

    def test_x3c_rejects_bad_sets(self):
        with pytest.raises(ValueError):
            X3CInstance(3, (frozenset({1, 2}),))
        with pytest.raises(ValueError):
            X3CInstance(4, (T123,))

    def test_setpacking_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            SetPackingInstance((T123,), 2)


class TestPartitionToLeontief:
    def test_gadget_shape_and_prices(self):
        market, prices = partition_to_leontief(PartitionInstance((1, 2)))
        assert (market.n, market.m) == (3, 3)
        assert prices.prices == (1, rational(2, 3), rational(4, 3))
        assert sum(prices.prices[1:], rational(0)) == 2

    def test_even_split_admits_allocation(self):
        market, prices = partition_to_leontief(PartitionInstance((2, 2)))
        assert prices.prices == (1, 1, 1)
        assert leontief.allocation_for_prices(market, prices) is not None

    def test_odd_total_admits_none(self):
        market, prices = partition_to_leontief(PartitionInstance((1, 2)))
        assert leontief.allocation_for_prices(market, prices) is None


class TestSetPackingToLeontief:
    def test_gadget_shape(self):
        market, threshold = setpacking_to_leontief(SetPackingInstance((frozenset({1}), frozenset({1})), 1))
        assert (market.n, market.m, threshold) == (2, 3, 1)
        assert [demand_items(market, i) for i in range(market.n)] == [{0, 1}, {0, 2}]

    def test_overlap_caps_welfare_at_one(self):
        market, _ = setpacking_to_leontief(SetPackingInstance((frozenset({1}), frozenset({1})), 2))
        assert leontief.optimal_welfare_equilibrium(market)[2] == 1

    def test_disjoint_pair_reaches_two(self):
        market, _ = setpacking_to_leontief(SetPackingInstance((frozenset({1}), frozenset({2})), 2))
        assert leontief.optimal_welfare_equilibrium(market)[2] == 2


class TestSubsetSumVerifyGadget:
    def test_hit_yields_witness(self):
        market, x, p = subsetsum_to_additive_verify(SubsetSumInstance((1, 2), 3))
        report = additive.verify_equilibrium(market, x, p)
        assert report.violation.buyer == 0 and report.violation.witness == {1, 2}

    def test_miss_yields_equilibrium(self):
        market, x, p = subsetsum_to_additive_verify(SubsetSumInstance((2, 2), 3))
        assert additive.verify_equilibrium(market, x, p).equilibrium

    def test_value_equal_to_target_is_a_hit(self):
        market, x, p = subsetsum_to_additive_verify(SubsetSumInstance((3,), 3))
        report = additive.verify_equilibrium(market, x, p)
        assert report.violation.buyer == 0 and report.violation.witness == {1}

    def test_oversized_values_are_dropped(self):
        market, _, _ = subsetsum_to_additive_verify(SubsetSumInstance((9, 2), 3))
        assert (market.n, market.m) == (2, 3)  # only the 2 survives

    def test_decoy_value_and_prices(self):
        market, _, prices = subsetsum_to_additive_verify(SubsetSumInstance((1, 2), 3))
        assert market.values[0][0] == 2  # one below the target
        assert prices.prices[1] == rational(1, 3)
        assert prices.prices[3] == 1 - rational(1, 3)


class TestX3CGadget:
    def test_solvable_with_spare_set(self):
        market = x3c_to_additive(X3CInstance(3, (T123, T123)))
        assert additive.search_equilibrium(market) is not None

    def test_exact_family_without_bonus_items(self):
        market = x3c_to_additive(X3CInstance(3, (T123,)))
        assert (market.n, market.m) == (1, 3)
        found = additive.search_equilibrium(market)
        assert found is not None and found[0].bundles[0] == {0, 1, 2}

    def test_uncovered_elements_mean_no_equilibrium(self):
        market = x3c_to_additive(X3CInstance(6, (T123, T124)))
        assert additive.search_equilibrium(market) is None

    def test_too_few_sets_is_trivially_no(self):
        market = x3c_to_additive(X3CInstance(6, (T123,)))
        assert additive.search_equilibrium(market) is None

    def test_values_are_thirds_and_ones(self):
        market = x3c_to_additive(X3CInstance(3, (T123, T123)))
        assert market.values[0][0] == rational(1, 3)
        assert market.values[0][3] == 1


class TestPartitionToAdditivePrices:
    def test_shape_and_prices(self):
        market, prices = partition_to_additive_prices(PartitionInstance((1, 1, 4)))
        assert (market.n, market.m) == (2, 5)
        assert market.values[0][3] == 9  # three half-sums
        assert market.values[0][4] == 2  # one below a half-sum
        assert prices.prices[3] == prices.prices[4] == rational(1, 2)

    def test_split_blocks_allocation(self):
        market, prices = partition_to_additive_prices(PartitionInstance((1, 1, 1, 1)))
        assert additive.allocation_for_prices(market, prices) is None

    def test_unequal_values_admit_allocation(self):
        market, prices = partition_to_additive_prices(PartitionInstance((1, 3)))
        assert additive.allocation_for_prices(market, prices) is not None

    def test_odd_total_rejected(self):
        with pytest.raises(ValueError):
            partition_to_additive_prices(PartitionInstance((1, 2)))


class TestSubsetSumAllocationGadget:
    def test_hit_blocks_prices(self):
        market, x = subsetsum_to_additive_allocation(SubsetSumInstance((1, 2), 2))
        assert additive.prices_for_allocation(market, x) is None

    def test_miss_admits_prices(self):
        market, x = subsetsum_to_additive_allocation(SubsetSumInstance((2, 2), 3))
        prices = additive.prices_for_allocation(market, x)
        assert prices is not None
        assert additive.verify_equilibrium(market, x, prices).equilibrium

    def test_total_below_target_rejected(self):
        with pytest.raises(ValueError):
            subsetsum_to_additive_allocation(SubsetSumInstance((1, 1), 3))

    def test_big_item_value(self):
        market, _ = subsetsum_to_additive_allocation(SubsetSumInstance((2, 2), 3))
        assert market.values[0][3] == 4 * 16


class TestDeciders:
    def test_partition_yes_with_certificate(self):
        yes, cert = decide_partition(PartitionInstance((1, 1)))
        assert yes and sorted(map(sum, cert)) == [1, 1]

    def test_subset_sum_parity_no(self):
        assert decide_subset_sum(SubsetSumInstance((2, 2), 3)) == (False, None)

    def test_x3c_single_cover(self):
        yes, cert = decide_x3c(X3CInstance(3, (T123,)))
        assert yes and cert == (T123,)

    def test_setpacking(self):
        assert decide_setpacking(SetPackingInstance((frozenset({1}), frozenset({2})), 2))[0]
        assert not decide_setpacking(SetPackingInstance((frozenset({1}), frozenset({1})), 2))[0]

    def test_decider_cap_error_carries_its_numbers(self):
        with pytest.raises(SearchCapExceeded) as info:
            decide_subset_sum(SubsetSumInstance(tuple(range(1, 22)), 5))
        assert (info.value.cap, info.value.size, info.value.limit) == ("max_subsets", 1 << 21, 1 << 20)
        assert "2097152 exceeds the cap max_subsets = 1048576" in str(info.value)


class TestGeneratorHygiene:
    def test_generated_markets_validate(self):
        markets = [
            partition_to_leontief(PartitionInstance((1, 2, 3)))[0],
            setpacking_to_leontief(SetPackingInstance((T123,), 1))[0],
            subsetsum_to_additive_verify(SubsetSumInstance((1, 2), 3))[0],
            x3c_to_additive(X3CInstance(3, (T123, T123))),
            partition_to_additive_prices(PartitionInstance((1, 3)))[0],
            subsetsum_to_additive_allocation(SubsetSumInstance((2, 2), 3))[0],
        ]
        for market in markets:  # built again from its fields, each passes the record's checks
            assert Market(market.n, market.m, market.values, market.market_class) == market

    def test_generators_are_deterministic(self):
        a = io.market_to_json(x3c_to_additive(X3CInstance(6, (T123, T124, T123))))
        b = io.market_to_json(x3c_to_additive(X3CInstance(6, (T123, T124, T123))))
        assert a == b
        c = io.market_to_json(partition_to_leontief(PartitionInstance((3, 1, 2)))[0])
        d = io.market_to_json(partition_to_leontief(PartitionInstance((3, 1, 2)))[0])
        assert c == d


class TestNormalForm:
    """Each record reads its input once and keeps a tuple of ints or a tuple
    of frozensets, whatever sequence the caller passed."""

    def test_changing_the_callers_list_changes_nothing(self):
        vals = [1, 1]
        inst = PartitionInstance(vals)
        vals.append(-2)
        assert inst.values == (1, 1)
        assert decide_partition(inst) == (True, ((1,), (1,)))
        triple, family = [1, 2, 3], [[1, 2]]
        x3c, packing = X3CInstance(3, [triple]), SetPackingInstance(family, 1)
        triple.append(4)
        family[0].append(3)
        family.append([9])
        assert x3c.sets == (T123,) and packing.sets == (frozenset({1, 2}),)

    def test_every_record_hashes(self):
        records = [PartitionInstance([1, 2]), SubsetSumInstance([1, 2], 3),
                   X3CInstance(3, [[1, 2, 3]]), SetPackingInstance([[1, 2], [3]], 2)]
        assert len({hash(r) for r in records}) == len(set(records)) == 4

    def test_generators_are_read_once(self):
        assert PartitionInstance(x for x in [1, 2]).values == (1, 2)
        assert SubsetSumInstance((x for x in [1, 2]), 3).values == (1, 2)
        inst = X3CInstance(3, (s for s in [(1, 2, 3)]))
        assert inst.sets == (T123,)
        assert x3c_to_additive(inst).m == 3
        packing = SetPackingInstance(((x for x in s) for s in [(1, 2), (3,)]), 2)
        assert decide_setpacking(packing) == (True, (frozenset({1, 2}), frozenset({3})))

    @pytest.mark.parametrize("make", [
        lambda sets: X3CInstance(6, sets(([1, 2, 3], [4, 5, 6]))),
        lambda sets: SetPackingInstance(sets(([1, 2, 3], [4, 5, 6])), 1),
    ], ids=["x3c", "setpacking"])
    def test_lists_tuples_and_frozensets_give_one_record(self, make):
        shapes = [lambda f: [list(s) for s in f], lambda f: tuple(tuple(reversed(s)) for s in f),
                  lambda f: tuple(frozenset(s) for s in f)]
        made = [make(shape) for shape in shapes]
        assert made[0] == made[1] == made[2]
        assert hash(made[0]) == hash(made[1]) == hash(made[2])
        assert all(type(s) is frozenset for s in made[0].sets) and type(made[0].sets) is tuple

    def test_value_lists_and_tuples_give_one_record(self):
        assert PartitionInstance([3, 1]) == PartitionInstance((3, 1))
        assert hash(SubsetSumInstance([3, 1], 2)) == hash(SubsetSumInstance((3, 1), 2))
        assert type(PartitionInstance([3, 1]).values) is tuple
