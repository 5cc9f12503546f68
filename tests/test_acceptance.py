"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with plain `pytest`; the per-criterion lines print unconditionally.
Everything is exact rational comparison; the only tolerances here are the
wall-clock budgets, asserted with time.perf_counter.
"""

import itertools
import json
import random
import time

import pytest

from ceei import additive, io, leontief, oracle
from ceei import reductions as rd
from ceei.core import bundle_utility, demand_items, make_allocation, rational, social_welfare
from ceei.lp import EQ, LE, OPTIMAL, check_point, constraint, lp_problem, solve_lp

from conftest import (
    example2_market,
    example3_market,
    example4_market,
    leontief_profile_corpus,
    multisets,
    x3c_family,
)


@pytest.fixture
def announce(capsys):
    def emit(line):
        with capsys.disabled():
            print(line)
    return emit


def _envy_free(market, x, p):
    for i in range(market.n):
        mine = bundle_utility(market, i, x.bundles[i])
        for j in range(market.n):
            spend = sum((p.prices[t] for t in x.bundles[j]), rational(0))
            if spend <= 1 and mine < bundle_utility(market, i, x.bundles[j]):
                return False
    return True


def test_criterion_1_worked_construction_golden(announce):
    start = time.perf_counter()
    x, p = leontief.compute_equilibrium(example2_market())
    elapsed = time.perf_counter() - start
    assert x.bundles == (frozenset({0}), frozenset({1}), frozenset({2}),
                         frozenset({3}), frozenset({4}), frozenset({5, 6, 7}))
    third = rational(1, 3)
    assert p.prices == (1, 1, 1, 1, 1, third, third, third)
    assert elapsed < 1.0
    announce(f"ACCEPTANCE 1 PASS: 6-buyer/8-item golden equilibrium exact ({elapsed:.3f}s < 1s)")


def test_criterion_2_existence_characterization(announce):
    start = time.perf_counter()
    checked = 0
    for market, profile in leontief_profile_corpus():
        singles = [d for d in profile if len(d) == 1]
        predicted = market.m >= market.n and len(singles) == len(set(singles))
        constructed = leontief.compute_equilibrium(market)
        brute = oracle.equilibrium_exists_bruteforce(market)
        assert (constructed is not None) == predicted == (brute is not None), profile
        for pair in (constructed, brute):
            if pair is not None:
                x, p = pair
                assert leontief.verify_equilibrium(market, x, p).equilibrium, profile
                assert _envy_free(market, x, p), profile
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    announce(f"ACCEPTANCE 2 PASS: existence characterization on {checked} markets, "
             f"0 mismatches ({elapsed:.1f}s < 120s)")


def test_criterion_3_welfare_approximation_bound(announce):
    start = time.perf_counter()
    checked = 0
    for market, profile in leontief_profile_corpus():
        apx = leontief.compute_equilibrium_apx_welfare(market)
        if apx is None:
            continue
        best = oracle.max_welfare_equilibrium_bruteforce(market)
        assert social_welfare(market, apx[0]) * market.n >= best[2], profile
        checked += 1

    observed = {}
    for n in (2, 3, 4, 5):
        market = example3_market(n)
        # serving everyone is supportable, and no allocation can beat the sum
        # of full-demand utilities, so the equilibrium optimum is exactly n
        full = make_allocation([sorted(demand_items(market, i)) for i in range(market.n)])
        assert social_welfare(market, full) == n
        assert leontief.prices_for_allocation(market, full) is not None
        ceiling = sum(bundle_utility(market, i, demand_items(market, i))
                      for i in range(market.n))
        assert ceiling == n
        if n <= 3:
            assert leontief.optimal_welfare_equilibrium(market)[2] == n
        baseline_x, _ = leontief.compute_equilibrium(market)
        assert social_welfare(market, baseline_x) == 1
        apx_x, apx_p = leontief.compute_equilibrium_apx_welfare(market)
        apx_sw = social_welfare(market, apx_x)
        assert apx_sw * n >= n
        observed[n] = str(apx_sw)
    elapsed = time.perf_counter() - start
    announce(f"ACCEPTANCE 3 PASS: 1/n welfare bound on {checked} equilibrium markets; "
             f"pair-family optimum n vs baseline 1, approx welfare {observed} ({elapsed:.1f}s)")


def test_criterion_4_unsupportable_optimum(announce):
    start = time.perf_counter()
    market = example4_market()
    assert oracle.max_welfare_equilibrium_bruteforce(market)[2] == 0
    unconstrained = max(social_welfare(market, x) for x in oracle.enumerate_allocations(market))
    assert unconstrained == 1
    assert leontief.prices_for_allocation(market, make_allocation([[0, 1], [2]])) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(f"ACCEPTANCE 4 PASS: equilibrium optimum 0 vs unconstrained optimum 1, "
             f"full-demand split unsupportable ({elapsed:.3f}s < 1s)")


def test_criterion_5_reduction_soundness(announce):
    start = time.perf_counter()
    counts, seconds = {}, {}
    lap = start

    def done(family, checks):
        nonlocal lap
        now = time.perf_counter()
        counts[family] = checks
        seconds[family] = round(now - lap, 1)
        lap = now

    n = 0
    for values in multisets():
        inst = rd.PartitionInstance(values)
        market, prices = rd.partition_to_leontief(inst)
        assert rd.decide_partition(inst)[0] == (leontief.allocation_for_prices(market, prices) is not None), values
        n += 1
    done("partition->leontief", n)

    n = 0
    subsets = [frozenset(c) for size in (1, 2, 3) for c in itertools.combinations(range(1, 5), size)]
    for ns in (1, 2, 3):
        for sets in itertools.combinations_with_replacement(subsets, ns):
            market, _ = rd.setpacking_to_leontief(rd.SetPackingInstance(sets, 1))
            best = leontief.optimal_welfare_equilibrium(market)[2]
            for threshold in range(1, ns + 1):
                want = rd.decide_setpacking(rd.SetPackingInstance(sets, threshold))[0]
                assert want == (best >= threshold), (sets, threshold)
                n += 1
    done("setpacking->leontief", n)

    n = 0
    for values in multisets():
        for target in range(1, 10):
            inst = rd.SubsetSumInstance(values, target)
            market, x, p = rd.subsetsum_to_additive_verify(inst)
            violated = not additive.verify_equilibrium(market, x, p).equilibrium
            assert rd.decide_subset_sum(inst)[0] == violated, (values, target)
            n += 1
    done("subsetsum->verify", n)

    n = 0
    for values in multisets():
        for target in range(max(values), min(9, sum(values)) + 1):
            inst = rd.SubsetSumInstance(values, target)
            market, x = rd.subsetsum_to_additive_allocation(inst)
            blocked = additive.prices_for_allocation(market, x) is None
            assert rd.decide_subset_sum(inst)[0] == blocked, (values, target)
            n += 1
    done("subsetsum->alloc", n)

    n = 0
    for values in multisets():
        if sum(values) % 2:
            continue
        inst = rd.PartitionInstance(values)
        market, prices = rd.partition_to_additive_prices(inst)
        blocked = additive.allocation_for_prices(market, prices) is None
        assert rd.decide_partition(inst)[0] == blocked, values
        n += 1
    done("partition->additive", n)

    n = 0
    for inst in x3c_family():
        found = additive.search_equilibrium(rd.x3c_to_additive(inst)) is not None
        assert rd.decide_x3c(inst)[0] == found, inst.sets
        n += 1
    done("x3c->additive", n)

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"seconds per family: {seconds}"
    total = sum(counts.values())
    announce(f"ACCEPTANCE 5 PASS: all six reduction biconditionals, {total} checks "
             f"{counts}, 0 exceptions ({elapsed:.1f}s < 300s; seconds per family {seconds})")


HAND_BUILT_SYSTEMS = [
    (lp_problem(1, [constraint({0: 1}, LE, 5)], {0: 1}), rational(5)),
    (lp_problem(2, [constraint({0: 2, 1: 1}, LE, 3), constraint({0: 1, 1: 2}, LE, 3)],
                {0: 1, 1: 1}), rational(2)),
    (lp_problem(2, [constraint({0: 1, 1: 1}, LE, 4), constraint({0: 1}, LE, 2)],
                {0: 3, 1: 1}), rational(8)),
    (lp_problem(1, [constraint({0: 12}, LE, 7)], {0: 1}), rational(7, 12)),
    (lp_problem(3, [constraint({0: 1, 1: 1, 2: 1}, EQ, 1), constraint({2: 2}, LE, 1)],
                {0: 1, 1: 2, 2: 3}), rational(5, 2)),
    (lp_problem(1, [constraint({0: -1}, LE, -2), constraint({0: 1}, LE, 9)], {0: -1}),
     rational(-2)),
    (lp_problem(2, [constraint({0: 1, 1: 1}, EQ, 3), constraint({0: 1}, LE, 1)],
                {0: 1, 1: 1}), rational(3)),
    (lp_problem(1, [constraint({0: 3}, EQ, 2)], {0: 2}), rational(4, 3)),
    (lp_problem(3, [constraint({0: 1, 1: 2, 2: 3}, LE, 6), constraint({0: 3, 1: 2, 2: 1}, LE, 6)],
                {0: 1, 1: 1, 2: 1}), rational(3)),
    (lp_problem(2, [constraint({1: 1, 0: -1}, LE, 0), constraint({0: 3}, LE, 1)], {1: 1}),
     rational(1, 3)),
    (lp_problem(1, [constraint({0: 1}, LE, 1), constraint({0: 1}, LE, 1), constraint({0: 2}, LE, 2)],
                {0: 1}), rational(1)),
    (lp_problem(2, [constraint({0: 1, 1: 1}, EQ, 1), constraint({1: -1}, LE, rational(-1, 4))],
                {0: 1, 1: -1}), rational(1, 2)),
    (lp_problem(1, [constraint({0: -1}, LE, 5)], {0: -1}, nonneg=[False]), rational(5)),
    (lp_problem(2, [constraint({0: 1}, LE, 2), constraint({0: 1, 1: -1}, EQ, 0)],
                {0: 1, 1: 1}), rational(4)),
    (lp_problem(2, [constraint({0: 6, 1: 4}, LE, 24), constraint({0: 1, 1: 2}, LE, 6)],
                {0: 5, 1: 4}), rational(21)),
    (lp_problem(1, [constraint({0: 7}, LE, 3)], {0: 1}), rational(3, 7)),
    (lp_problem(3, [constraint({0: 1}, LE, 1), constraint({1: 1}, LE, 1), constraint({2: 1}, LE, 1)],
                {0: 1, 1: 1, 2: 1}), rational(3)),
    (lp_problem(2, [constraint({0: 1, 1: 1}, LE, 10), constraint({0: 1, 1: -1}, EQ, 2)],
                {0: 2, 1: 3}), rational(24)),
    (lp_problem(1, [constraint({0: 1}, EQ, 0)], {0: 1}), rational(0)),
    (lp_problem(2, [constraint({0: 2}, LE, 1), constraint({0: 2, 1: -1}, LE, 1)],
                {0: 10, 1: -1}), rational(5)),
]


def test_criterion_6_lp_exactness(announce):
    start = time.perf_counter()
    rng = random.Random(271828)
    solved = 0
    for _ in range(100):
        num_vars = rng.randint(1, 6)
        anchor = [rng.randint(0, 4) for _ in range(num_vars)]
        cons = []
        for _ in range(rng.randint(0, 6)):
            coeffs = {i: rng.randint(-9, 9) for i in range(num_vars)}
            if all(c == 0 for c in coeffs.values()):
                coeffs[0] = 1
            lhs_at_anchor = sum(c * anchor[i] for i, c in coeffs.items())
            if rng.random() < 0.3:
                cons.append(constraint(coeffs, EQ, lhs_at_anchor))
            else:
                cons.append(constraint(coeffs, LE, lhs_at_anchor + rng.randint(0, 5)))
        for i in range(num_vars):  # bounded, and the anchor stays feasible
            cons.append(constraint({i: 1}, LE, 8))
        problem = lp_problem(num_vars, cons, {i: rng.randint(-9, 9) for i in range(num_vars)})
        result = solve_lp(problem)
        assert result.status == OPTIMAL
        assert check_point(problem, result.point)
        solved += 1

    for problem, expected in HAND_BUILT_SYSTEMS:
        result = solve_lp(problem)
        assert result.status == OPTIMAL
        assert result.value == expected
        assert check_point(problem, result.point)
    elapsed = time.perf_counter() - start
    announce(f"ACCEPTANCE 6 PASS: {solved} random feasible systems pass check_point, "
             f"{len(HAND_BUILT_SYSTEMS)} analytic optima exact ({elapsed:.1f}s)")


def test_criterion_7_verification_gadget(announce):
    start = time.perf_counter()
    market, x, p = rd.subsetsum_to_additive_verify(rd.SubsetSumInstance((1, 2), 3))
    report = additive.verify_equilibrium(market, x, p)
    assert not report.equilibrium
    assert report.violation.kind == "suboptimal-bundle"
    assert report.violation.buyer == 0
    assert report.violation.witness == frozenset({1, 2})
    market, x, p = rd.subsetsum_to_additive_verify(rd.SubsetSumInstance((2, 2), 3))
    assert additive.verify_equilibrium(market, x, p).equilibrium
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(f"ACCEPTANCE 7 PASS: verification gadget witness (buyer 0, {{1,2}}) and "
             f"hit-free equilibrium exact ({elapsed:.3f}s < 1s)")


def test_criterion_8_cli_round_trip(announce):
    start = time.perf_counter()
    checked = 0
    for market, _ in leontief_profile_corpus():
        text = io.market_to_json(market)
        reparsed = io.market_from_json(text)
        assert io.market_to_json(reparsed) == text
        first = leontief.compute_equilibrium(market)
        second = leontief.compute_equilibrium(reparsed)
        assert (first is None) == (second is None)
        if first is not None:
            assert first[0] == second[0] and first[1] == second[1]
            assert json.loads(io.solution_to_json(allocation=first[0], prices=first[1])) == \
                json.loads(io.solution_to_json(allocation=second[0], prices=second[1]))
        checked += 1
    elapsed = time.perf_counter() - start
    announce(f"ACCEPTANCE 8 PASS: {checked} corpus markets round-trip byte-identically "
             f"with identical verdicts ({elapsed:.1f}s)")
