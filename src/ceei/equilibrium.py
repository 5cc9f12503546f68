"""The equilibrium skeleton shared by both valuation classes.

Both classes are held to the same conditions: a feasible allocation, every
unsold item free, every bundle costing exactly the budget 1, and no buyer
able to afford a bundle it strictly prefers.  They differ only in which
bundles a buyer would deviate to, so `leontief` and `additive` supply a
best-response test, per-buyer deviators and which items may stay unsold.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from . import lp
from .core import (
    SUBOPTIMAL_BUNDLE,
    Allocation,
    EquilibriumReport,
    Market,
    PriceVector,
    SearchCapExceeded,
    SearchCaps,
    Violation,
    check_budgets,
    check_clearing,
    check_feasible,
    integer_row,
)

#: deviators(buyer, bundle): the bundles the buyer strictly prefers to `bundle`.
Deviators = Callable[[int, frozenset], List[frozenset]]


def verify_equilibrium(
    market: Market, allocation: Allocation, prices: PriceVector, better_bundle: Callable
) -> EquilibriumReport:
    """Check feasibility, then clearing, then budgets, then each buyer by
    index: `better_bundle(i)` is an affordable bundle buyer i strictly
    prefers to its own (the violation's witness), or None.  A later check
    runs only once the earlier ones pass."""
    found = (check_feasible(market, allocation) or check_clearing(market, allocation, prices)
             or check_budgets(market, allocation, prices))
    if found is not None:
        return EquilibriumReport.fail(found)
    for i in range(market.n):
        witness = better_bundle(i)
        if witness is not None:
            return EquilibriumReport.fail(Violation(SUBOPTIMAL_BUNDLE, buyer=i, witness=witness))
    return EquilibriumReport.ok()


def price_support_lp(market: Market, allocation: Allocation, deviators: Deviators) -> lp.LPProblem:
    """The price-recovery system for a fixed feasible allocation.

    Variables 0..m-1 are item prices, variable m is the strictness slack.
    Unsold items are pinned to price zero, every bundle must cost exactly 1,
    and every deviator must cost at least 1 + slack.  The allocation is
    price-supportable exactly when the maximal slack is positive.
    """
    m = market.m
    eps = m
    unsold = frozenset(range(m)).difference(*allocation.bundles)
    cons = [lp.constraint({j: 1}, lp.EQ, 0) for j in sorted(unsold)]
    for i, bundle in enumerate(allocation.bundles):
        if not bundle:
            raise ValueError(f"buyer {i} has an empty bundle; no prices can exhaust its budget")
        cons.append(lp.constraint({j: 1 for j in bundle}, lp.EQ, 1))
        for deviator in deviators(i, bundle):
            coeffs = {j: -1 for j in deviator}
            coeffs[eps] = 1
            cons.append(lp.constraint(coeffs, lp.LE, -1))
    cons.append(lp.constraint({eps: 1}, lp.LE, 1))
    return lp.lp_problem(m + 1, cons, {eps: 1})


def prices_for_allocation(market: Market, allocation: Allocation, deviators: Deviators) -> Optional[PriceVector]:
    """Prices making the given allocation an equilibrium, or None.

    Each buyer's deviators are listed once.  A deviator inside some bundle
    plus the unsold items costs at most 1 under the system's own
    constraints, so then the strict system is unsatisfiable without an LP.
    """
    if check_feasible(market, allocation) is not None or not all(allocation.bundles):
        return None
    unsold = frozenset(range(market.m)).difference(*allocation.bundles)
    covers = [bundle | unsold for bundle in allocation.bundles]
    listed = []
    for i, bundle in enumerate(allocation.bundles):
        listed.append(deviators(i, bundle))
        if any(deviator <= cover for deviator in listed[i] for cover in covers):
            return None
    result = lp.solve_lp(price_support_lp(market, allocation, lambda i, _: listed[i]))
    if result.status != lp.OPTIMAL or result.value <= 0:
        return None
    return PriceVector(result.point[: market.m])


def _check_assignment_cap(market: Market, caps: SearchCaps) -> None:
    if market.m > caps.max_items or (market.n + 1) ** market.m > caps.max_states:
        raise SearchCapExceeded(
            f"assignment search over {market.n} buyers and {market.m} items exceeds the cap"
        )


def allocation_for_prices(
    market: Market, prices: PriceVector, may_stay_unsold: List[bool], is_equilibrium: Callable
) -> Optional[Allocation]:
    """First allocation (in the deterministic assignment order) that forms an
    equilibrium with the given prices, or None.

    Assignments are enumerated lexicographically: items in index order, each
    tried with buyers in index order and unsold last.  Sound cuts only: an
    item stays unsold only at price zero and where `may_stay_unsold`, a
    buyer's spend never exceeds 1, and only leaves where every spend is
    exactly 1 reach `is_equilibrium`.  Spend is kept in ints over the
    prices' common denominator D, so "spend <= 1" is "spend <= D".
    """
    n, m = market.n, market.m
    p, den = integer_row(prices.prices)
    bundles = [[] for _ in range(n)]
    spend = [0] * n

    def assign(j: int) -> Optional[Allocation]:
        if j == m:
            if any(s != den for s in spend):
                return None
            candidate = Allocation(tuple(frozenset(b) for b in bundles))
            return candidate if is_equilibrium(candidate) else None
        for i in range(n):
            if spend[i] + p[j] <= den:
                bundles[i].append(j)
                spend[i] += p[j]
                found = assign(j + 1)
                if found is not None:
                    return found
                bundles[i].pop()
                spend[i] -= p[j]
        if p[j] == 0 and may_stay_unsold[j]:
            return assign(j + 1)
        return None

    return assign(0)
