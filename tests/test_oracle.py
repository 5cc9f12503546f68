import itertools

import pytest

from ceei import additive, leontief, oracle
from ceei.core import SearchCapExceeded, SearchCaps, bundle_utility, make_market, rational

from conftest import demand_market, example3_market, example4_market, leontief_profile_corpus


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in oracle.enumerate_allocations(make_market([[1]], "leontief"))) == 2
        assert sum(1 for _ in oracle.enumerate_allocations(demand_market([{0}, {0}], 1))) == 3
        assert sum(1 for _ in oracle.enumerate_allocations(demand_market([{0}, {1}], 2))) == 9

    def test_all_unsold_comes_first(self):
        first = next(oracle.enumerate_allocations(demand_market([{0}, {1}], 2)))
        assert first.bundles == (frozenset(), frozenset())

    def test_stream_is_pure_function_of_shape(self):
        m1 = demand_market([{0}, {1}], 2)
        m2 = demand_market([{0, 1}, {0}], 2)  # same (n, m), different demands
        assert list(oracle.enumerate_allocations(m1)) == list(oracle.enumerate_allocations(m2))

    def test_no_duplicates(self):
        seen = list(oracle.enumerate_allocations(demand_market([{0}, {1}, {2}], 3)))
        assert len(seen) == len(set(seen)) == 4 ** 3

    def test_cap_exceeded(self):
        market = demand_market([{0}, {1}], 2)
        with pytest.raises(SearchCapExceeded):
            list(oracle.enumerate_allocations(market, SearchCaps(max_states=8)))

    def test_cap_error_carries_its_numbers(self):
        with pytest.raises(SearchCapExceeded) as info:
            list(oracle.enumerate_allocations(demand_market([{0}, {1}], 2), SearchCaps(max_states=8)))
        assert (info.value.cap, info.value.size, info.value.limit) == ("max_states", 9, 8)
        assert "9 exceeds the cap max_states = 8" in str(info.value)


class TestExistence:
    def test_example4_has_zero_welfare_equilibrium(self):
        found = oracle.equilibrium_exists_bruteforce(example4_market())
        assert found is not None
        x, p = found
        assert leontief.verify_equilibrium(example4_market(), x, p).equilibrium

    def test_duplicate_singletons_none(self):
        assert oracle.equilibrium_exists_bruteforce(demand_market([{0}, {0}], 2)) is None

    def test_two_buyers_one_item_none(self):
        assert oracle.equilibrium_exists_bruteforce(demand_market([{0}, {0}], 1)) is None


class TestMaxWelfare:
    def test_example4_zero(self):
        assert oracle.max_welfare_equilibrium_bruteforce(example4_market())[2] == 0

    def test_pair_market_two(self):
        assert oracle.max_welfare_equilibrium_bruteforce(example3_market(2))[2] == 2

    def test_single_buyer(self):
        market = make_market([[2]], "leontief")
        x, p, welfare = oracle.max_welfare_equilibrium_bruteforce(market)
        assert welfare == rational(1, 2)
        assert x.bundles == (frozenset({0}),)

    def test_returned_tuple_verifies(self):
        market = example3_market(2)
        x, p, _ = oracle.max_welfare_equilibrium_bruteforce(market)
        assert leontief.verify_equilibrium(market, x, p).equilibrium


class TestAgreementWithSolvers:
    def test_leontief_sampled_profiles(self):
        corpus = list(leontief_profile_corpus(buyer_counts=(1, 2), item_counts=(1, 2, 3)))
        for market, _ in corpus:
            ours = leontief.compute_equilibrium(market)
            theirs = oracle.equilibrium_exists_bruteforce(market)
            assert (ours is None) == (theirs is None)
            if theirs is not None:
                x, p = theirs
                assert leontief.verify_equilibrium(market, x, p).equilibrium

    def test_additive_small_grid(self):
        rows_space = list(itertools.product([0, 1, 2], repeat=2))
        for r0, r1 in itertools.combinations_with_replacement(rows_space, 2):
            if all(v == 0 for v in r0) and all(v == 0 for v in r1):
                continue
            market = make_market([list(r0), list(r1)], "additive")
            ours = additive.search_equilibrium(market)
            theirs = oracle.equilibrium_exists_bruteforce(market)
            assert (ours is None) == (theirs is None), (r0, r1)
            if theirs is not None:
                x, p = theirs
                assert additive.verify_equilibrium(market, x, p).equilibrium


def test_accepted_equilibria_are_envy_free():
    for market, _ in leontief_profile_corpus(buyer_counts=(2,), item_counts=(2, 3)):
        found = oracle.equilibrium_exists_bruteforce(market)
        if found is None:
            continue
        x, p = found
        for i in range(market.n):
            for j in range(market.n):
                spend = sum((p.prices[t] for t in x.bundles[j]), rational(0))
                if spend <= 1:
                    assert bundle_utility(market, i, x.bundles[i]) >= bundle_utility(market, i, x.bundles[j])
