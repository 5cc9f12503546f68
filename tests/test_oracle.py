import ast
import itertools
import json
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from ceei import additive, core, leontief, lp, oracle
from ceei.core import (
    ONE,
    ZERO,
    PriceVector,
    SearchCapExceeded,
    SearchCaps,
    bundle_utility,
    make_market,
    rational,
)

from conftest import (
    count_calls,
    demand_market,
    example3_market,
    example4_market,
    leontief_profile_corpus,
    oracle_corpus_stride,
    run_script,
)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_candidates_are_the_tuples_that_leave_no_buyer_empty(self, n):
        # Built, not filtered: the same tuples in the same order as the owner
        # tuples that name every buyer, also when there are fewer items than
        # buyers (none) or exactly as many (permutations only).
        for m in range(1, 7):
            market = make_market([[1] * m] * n, "leontief")
            everyone = set(range(1, n + 1))
            expected = [t for t in itertools.product(range(n + 1), repeat=m) if everyone <= set(t)]
            assert list(oracle._candidates(market, core.DEFAULT_CAPS)) == expected, (n, m)

    # Ahead of the 1x12 refusal below, which a search sized too small would
    # run for hours: this fails at once when either class is mis-sized.
    @pytest.mark.parametrize("search", [oracle.equilibrium_exists_bruteforce,
                                        oracle.max_welfare_equilibrium_bruteforce])
    @pytest.mark.parametrize("market_class, size", [("leontief", 3 ** 2), ("additive", 3 ** 2 * 2 * 2 ** 2)])
    def test_search_refusal_size_at_the_cap_and_one_past(self, search, market_class, size):
        market = demand_market([{0}, {1}], 2, market_class)
        assert search(market, SearchCaps(max_states=size)) == search(market) is not None
        with pytest.raises(SearchCapExceeded) as info:
            search(market, SearchCaps(max_states=size - 1))
        assert (info.value.cap, info.value.size, info.value.limit) == ("max_states", size, size - 1)

    @pytest.mark.parametrize("search", [oracle.equilibrium_exists_bruteforce,
                                        oracle.max_welfare_equilibrium_bruteforce])
    def test_additive_cap_counts_every_bundle_of_every_buyer(self, search):
        # each of the 2^12 states builds a system over all 2^12 bundles; the search runs in a child,
        # so a cap that lets the market through fails at the timeout instead of hanging the suite
        refused = json.loads(run_script(
            "import json\n"
            "from ceei import oracle\n"
            "from ceei.core import SearchCapExceeded, make_market\n"
            "try:\n"
            f"    oracle.{search.__name__}(make_market([list(range(1, 13))], 'additive'))\n"
            "except SearchCapExceeded as exc:\n"
            "    print(json.dumps([exc.cap, exc.size, exc.limit, str(exc)]))\n"
            "else:\n"
            "    print('null')\n", timeout=30))
        assert refused is not None, "not refused"
        assert refused[:3] == ["max_states", 2 ** 24, 10_000_000]
        assert refused[3] == ("enumeration over 1 buyers and 12 items, (n+1)^m * n * 2^m bundles: "
                              "16777216 exceeds the cap max_states = 10000000")
        market = make_market([list(range(1, 13))], "additive")
        assert next(oracle.enumerate_allocations(market)).bundles == (frozenset(),)  # still (n+1)^m

    @pytest.mark.parametrize("search", [oracle.equilibrium_exists_bruteforce,
                                        oracle.max_welfare_equilibrium_bruteforce])
    def test_market_exactly_at_a_custom_cap_runs(self, search):
        additive_market = make_market([[1, 2], [2, 1]], "additive")  # 3^2 * 2 * 2^2 = 72
        assert search(additive_market, SearchCaps(max_states=72)) == search(additive_market) is not None
        with pytest.raises(SearchCapExceeded, match="72 exceeds the cap max_states = 71"):
            search(additive_market, SearchCaps(max_states=71))
        leontief_market = demand_market([{0}, {1}], 2)  # 3^2, with no bundle factor
        assert search(leontief_market, SearchCaps(max_states=9)) == search(leontief_market) is not None


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


def test_oracle_shares_only_the_bare_lp_with_the_solvers():
    # The oracle is ground truth only while it is independent: from this
    # package it may import `lp` and, from `core`, records, constants, caps
    # and SearchCapExceeded, never a function the solvers also use.
    tree = ast.parse(Path(oracle.__file__).read_text())
    from_core = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name in sys.stdlib_module_names for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            assert node.module.split(".")[0] in (*sys.stdlib_module_names, "__future__")
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 1 and node.module in (None, "core")
            if node.module is None:
                assert [alias.name for alias in node.names] == ["lp"]
            else:
                from_core += [alias.name for alias in node.names]
    assert from_core
    for name in from_core:
        value = getattr(core, name)
        assert (not callable(value) or value is SearchCapExceeded
                or isinstance(value, type) and issubclass(value, core.Record)), name


def _reference_support_system(market, x):
    """The oracle's price system as checked records, through `constraint`:
    prices 0..m-1 and eps = m, unsold items pinned to 0, every bundle
    costing 1, every bundle a buyer strictly prefers costing at least
    1 + eps (for a Leontief buyer, its demand set when it lacks part of
    it), and eps <= 1."""
    m, eps = market.m, market.m
    sold = frozenset().union(*x.bundles)
    rows = [lp.constraint({j: 1}, lp.EQ, 0) for j in range(m) if j not in sold]
    rows += [lp.constraint({j: 1 for j in bundle}, lp.EQ, 1) for bundle in x.bundles]
    for row, bundle in zip(market.values, x.bundles):
        if market.market_class == core.LEONTIEF:
            wanted = frozenset(j for j in range(m) if row[j] > 0)
            better = [] if wanted <= bundle else [wanted]
        else:
            own = sum(row[j] for j in bundle)
            subsets = itertools.chain.from_iterable(itertools.combinations(range(m), k) for k in range(1, m + 1))
            better = sorted((s for s in subsets if sum(row[j] for j in s) > own),
                            key=lambda s: sum(1 << (m - 1 - j) for j in s))
        rows += [lp.constraint({**{j: -1 for j in d}, eps: 1}, lp.LE, -1) for d in better]
    rows.append(lp.constraint({eps: 1}, lp.LE, 1))
    return lp.lp_problem(m + 1, rows, {eps: 1})


@pytest.mark.slow
def test_oracle_rows_solve_as_the_record_system(monkeypatch):
    # The oracle hands the simplex dense int rows; `solve_lp` on the same
    # system built as records must reach the same status, point and value
    # along as many pivots, system by system, over both searches on the
    # `corpus->oracle` golden stride.  Each system's allocation is read
    # back from its bundle rows, the equality rows with right-hand side 1.
    pivots = count_calls(monkeypatch, lp._Tableau, "pivot")
    built, solved, market = [], [], None
    solve_rows = lp._solve_rows

    def solve(rows, eq, objective):
        bundles = [frozenset(j for j in range(market.m) if row[j]) for row, q in zip(rows, eq) if q and row[-1] == 1]
        built.append((market, core.Allocation(bundles)))
        before = len(pivots)
        answer = solve_rows(rows, eq, objective)
        solved.append((answer, len(pivots) - before))
        return answer

    monkeypatch.setattr(lp, "_solve_rows", solve)
    split = {}
    for search in (oracle.equilibrium_exists_bruteforce, oracle.max_welfare_equilibrium_bruteforce):
        systems, before = len(solved), len(pivots)
        for market in oracle_corpus_stride():
            search(market)
        split[search.__name__] = (len(solved) - systems, len(pivots) - before)
    monkeypatch.setattr(lp, "_solve_rows", solve_rows)
    assert split == {"equilibrium_exists_bruteforce": (7_019, 51_905),
                     "max_welfare_equilibrium_bruteforce": (2_411, 16_155)}
    assert len(built) == len(solved) == 9_430 and len(pivots) == 68_060
    for (market, x), ((status, scaled, den), count) in zip(built, solved):
        before = len(pivots)
        result = lp.solve_lp(_reference_support_system(market, x))
        assert (status, len(pivots) - before - count) == (result.status, 0), (market, x)
        if status == lp.OPTIMAL:
            point = tuple(rational(v, den) if v else ZERO for v in scaled)
            assert (point, point[market.m]) == (result.point, result.value), (market, x)


def _reference_value(market, i, bundle):
    """Buyer i's utility for `bundle` by its definition, in rationals."""
    row = market.values[i]
    if market.market_class == core.LEONTIEF:
        wanted = [j for j in range(market.m) if row[j] > 0]
        return min(ONE / row[j] for j in wanted) if all(j in bundle for j in wanted) else ZERO
    return sum((row[j] for j in bundle), ZERO)


def _reference_prices(market, x):
    if not all(x.bundles):
        return None
    result = lp.solve_lp(_reference_support_system(market, x))
    if result.status != lp.OPTIMAL or result.value <= 0:
        return None
    return PriceVector(result.point[: market.m])


def _reference_first(market):
    """The existence search by its definition: the first allocation of the
    enumeration whose system is strictly satisfiable, with its prices."""
    return next(((x, p) for x in oracle.enumerate_allocations(market)
                 if (p := _reference_prices(market, x)) is not None), None)


def _reference_best(market):
    """The welfare search by its former rule: one pass over the enumeration
    that keeps the last supported allocation strictly beating the best
    kept, with utilities, welfare and every strictly better bundle in
    rationals."""
    best = None
    for x in oracle.enumerate_allocations(market):
        welfare = sum((_reference_value(market, i, b) for i, b in enumerate(x.bundles)), ZERO)
        if best is None or welfare > best[2]:
            prices = _reference_prices(market, x)
            if prices is not None:
                best = (x, prices, welfare)
    return best


def _non_integral_markets(rng, count):
    leontief_values = [Fraction(1, 2), Fraction(2, 3), Fraction(5, 4), Fraction(7, 3), Fraction(9, 10), 3]
    additive_values = [0, Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(5, 6), Fraction(7, 5), 2]
    for k in range(count):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        if k % 2:
            yield make_market([[rng.choice(additive_values) for _ in range(m)] for _ in range(n)], "additive")
            continue
        rows = [[rng.choice(leontief_values) if rng.random() < 0.6 else 0 for _ in range(m)] for _ in range(n)]
        for row in rows:
            if not any(row):
                row[rng.randrange(m)] = rng.choice(leontief_values)
        yield make_market(rows, "leontief")


def test_searches_match_a_rational_reference_on_non_integral_values():
    # The golden corpora hold whole values only, so this is where utilities
    # and welfare are compared over a scale above 1: Leontief utilities such
    # as 1 / (5/4), and additive rows with mixed denominators.
    found = 0
    for market in _non_integral_markets(random.Random(31), 400):
        assert repr(oracle.equilibrium_exists_bruteforce(market)) == repr(_reference_first(market)), market
        ours = oracle.max_welfare_equilibrium_bruteforce(market)
        assert repr(ours) == repr(_reference_best(market)), market
        if ours is not None:
            assert type(ours[2]) is Fraction
            found += ours[2] != int(ours[2])
    assert found >= 100  # many optima are not whole


def _owner_tuple(m, bundles):
    """An allocation's place in the enumeration: item j's owner, 0 unsold
    and k + 1 for buyer k, item by item, compared lexicographically."""
    return tuple(next((k + 1 for k, bundle in enumerate(bundles) if j in bundle), 0) for j in range(m))


def test_welfare_search_solves_no_system_worth_less_than_its_answer(monkeypatch):
    # Over the `corpus->oracle` stride, every system the welfare search
    # hands the simplex is for an allocation worth at least its answer;
    # one worth as much comes before the answer in the enumeration, and the
    # last system solved is the answer's.  Each system's allocation is read
    # back from its bundle rows, the equality rows with right-hand side 1.
    solve_rows, tested = lp._solve_rows, []

    def solve(rows, eq, objective):
        tested.append([frozenset(j for j in range(m) if row[j]) for row, q in zip(rows, eq) if q and row[-1] == 1])
        return solve_rows(rows, eq, objective)

    monkeypatch.setattr(lp, "_solve_rows", solve)
    above = level = 0
    for market in oracle_corpus_stride():
        m, tested[:] = market.m, []
        found = oracle.max_welfare_equilibrium_bruteforce(market)
        if found is None:
            continue
        x, _, welfare = found
        assert tested[-1] == list(x.bundles), market
        for bundles in tested[:-1]:
            worth = sum((_reference_value(market, i, b) for i, b in enumerate(bundles)), ZERO)
            assert worth >= welfare, (market, bundles)
            if worth == welfare:
                assert _owner_tuple(m, bundles) < _owner_tuple(m, x.bundles), (market, bundles)
            above += worth > welfare
            level += worth == welfare
    assert above and level  # both kinds of tested system occur


def _level_markets(rng, count):
    """Leontief markets of up to 3x4 with values 1-3 and additive markets of
    up to 3x3 with values 0-4, in turn: whole values that give a market
    several welfare levels."""
    for k in range(count):
        n = rng.randint(1, 3)
        if k % 2:
            m = rng.randint(1, 3)
            yield make_market([[rng.randint(0, 4) for _ in range(m)] for _ in range(n)], "additive")
            continue
        m = rng.randint(1, 4)
        rows = [[rng.randint(1, 3) if rng.random() < 0.6 else 0 for _ in range(m)] for _ in range(n)]
        for row in rows:
            if not any(row):
                row[rng.randrange(m)] = rng.randint(1, 3)
        yield make_market(rows, "leontief")


def test_welfare_search_matches_the_former_rule():
    # The welfare search tests allocations level by level from the highest
    # welfare down; the former rule took one pass and kept the last
    # strictly improving supported allocation.  Both give the first
    # enumerated equilibrium of the highest welfare, so allocation, prices
    # and welfare must agree exactly, also where the answer lies below the
    # highest welfare of an allocation that leaves no buyer empty, which is
    # rare: 15 of these 1,000 markets (and 356 have no equilibrium, so the
    # search walks every level).
    below = 0
    for market in _level_markets(random.Random(36), 1000):
        ours = oracle.max_welfare_equilibrium_bruteforce(market)
        assert repr(ours) == repr(_reference_best(market)), market
        if ours is not None:
            top = max(sum((_reference_value(market, i, b) for i, b in enumerate(x.bundles)), ZERO)
                      for x in oracle.enumerate_allocations(market) if all(x.bundles))
            below += ours[2] < top
    assert below >= 10


def test_welfare_search_walks_only_the_tuples_it_can_test():
    # 7x7 Leontief with no equilibrium (buyers 0 and 1 both demand item 0
    # alone) and 96 welfare levels: each level's walk must cost its 5,040
    # candidates, not all 8^7 = 2,097,152 owner tuples, which took about a
    # minute where the whole search takes about a second.
    found = run_script(
        "from ceei import oracle\n"
        "from ceei.core import make_market\n"
        "rows = [[1] + [0] * 6, [2] + [0] * 6] + [[0] * j + [2 ** j] + [0] * (6 - j) for j in range(2, 7)]\n"
        "print(oracle.max_welfare_equilibrium_bruteforce(make_market(rows, 'leontief')))\n", timeout=20)
    assert found == "None\n"


def test_welfare_search_keeps_no_table_of_owner_tuples():
    # A 3x8 Leontief market has 46,620 owner tuples that leave no buyer
    # empty; a search that kept them by welfare level would hold several
    # megabytes, where walking once per level holds one int per level.
    market = make_market([[1, 1, 0, 0, 0, 0, 0, 0], [0, 0, 2, 2, 0, 0, 0, 0], [0, 0, 0, 0, 3, 3, 3, 0]], "leontief")
    tracemalloc.start()
    try:
        found = oracle.max_welfare_equilibrium_bruteforce(market)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found[2] == 1 + Fraction(1, 2) + Fraction(1, 3)
    assert peak < 1 << 20, peak
