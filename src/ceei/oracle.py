"""Independent brute-force ground truth for both valuation classes.

Everything here is deliberately re-implemented from scratch — enumeration,
utility evaluation and constraint assembly share no code with the solver
modules they are used to check (only the bare LP solver is reused).  The
additive deviation constraints are the full, unfiltered set over every
strictly better bundle.

Each strict "p(B) > 1" is encoded as "p(B) >= 1 + eps" with eps a maximized
variable, so the system is strictly satisfiable iff the optimum eps > 0.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Tuple

from . import lp
from .core import (
    DEFAULT_CAPS,
    LEONTIEF,
    ONE,
    ZERO,
    Allocation,
    Market,
    PriceVector,
    SearchCapExceeded,
    SearchCaps,
)


def _check_cap(market: Market, caps: SearchCaps, systems: bool = False) -> None:
    size, what = (market.n + 1) ** market.m, "(n+1)^m states"
    if systems and market.market_class != LEONTIEF:  # an additive price system tests every bundle
        size, what = size * (market.n << market.m), "(n+1)^m * n * 2^m bundles"
    if size > caps.max_states:
        raise SearchCapExceeded(f"enumeration over {market.n} buyers and {market.m} items, {what}",
                                "max_states", size, caps.max_states)


def _value(market: Market, buyer: int, bundle) -> object:
    row = market.values[buyer]
    if market.market_class == LEONTIEF:
        wanted = [j for j in range(market.m) if row[j] > 0]
        for j in wanted:
            if j not in bundle:
                return ZERO
        return min((ONE / row[j] for j in wanted))
    total = ZERO
    for j in bundle:
        total += row[j]
    return total


def enumerate_allocations(market: Market, caps: SearchCaps = DEFAULT_CAPS) -> Iterator[Allocation]:
    """Every assignment of items to buyers-or-unsold, exactly once.

    Item-major order: the stream counts through owner tuples
    (owner of item 0, owner of item 1, ...) lexicographically with owner
    order (unsold, buyer 0, ..., buyer n-1), so the all-unsold allocation
    comes first.  The order is a pure function of (n, m).
    """
    _check_cap(market, caps)
    n, m = market.n, market.m
    for owners in itertools.product(range(n + 1), repeat=m):
        bundles = [[] for _ in range(n)]
        for j, owner in enumerate(owners):
            if owner:
                bundles[owner - 1].append(j)
        yield Allocation(frozenset(b) for b in bundles)


def _support_system(market: Market, allocation: Allocation) -> Optional[lp.LPProblem]:
    """Price system for one candidate allocation, or None when a budget can
    never be met (some bundle is empty)."""
    n, m = market.n, market.m
    eps = m
    if any(not b for b in allocation.bundles):
        return None
    rows = []
    sold = frozenset(j for b in allocation.bundles for j in b)
    for j in range(m):
        if j not in sold:
            rows.append(lp.constraint({j: 1}, lp.EQ, 0))
    for bundle in allocation.bundles:
        rows.append(lp.constraint({j: 1 for j in bundle}, lp.EQ, 1))
    if market.market_class == LEONTIEF:
        for i in range(n):
            wanted = frozenset(j for j in range(m) if market.values[i][j] > 0)
            if not wanted <= allocation.bundles[i]:
                coeffs = {j: -1 for j in wanted}
                coeffs[eps] = 1
                rows.append(lp.constraint(coeffs, lp.LE, -1))
    else:
        for i in range(n):
            assigned = _value(market, i, allocation.bundles[i])
            for picks in itertools.product((False, True), repeat=m):
                bundle = [j for j in range(m) if picks[j]]
                if bundle and _value(market, i, bundle) > assigned:
                    coeffs = {j: -1 for j in bundle}
                    coeffs[eps] = 1
                    rows.append(lp.constraint(coeffs, lp.LE, -1))
    rows.append(lp.constraint({eps: 1}, lp.LE, 1))
    return lp.lp_problem(m + 1, rows, {eps: 1})


def _supporting_prices(market: Market, allocation: Allocation) -> Optional[PriceVector]:
    system = _support_system(market, allocation)
    if system is None:
        return None
    result = lp.solve_lp(system)
    if result.status != lp.OPTIMAL or result.value <= 0:
        return None
    return PriceVector(result.point[: market.m])


def equilibrium_exists_bruteforce(
    market: Market, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Tuple[Allocation, PriceVector]]:
    """First allocation in the enumeration order that admits strictly
    satisfying prices, with those prices; None when no equilibrium exists."""
    _check_cap(market, caps, systems=True)
    for allocation in enumerate_allocations(market, caps):
        prices = _supporting_prices(market, allocation)
        if prices is not None:
            return allocation, prices
    return None


def max_welfare_equilibrium_bruteforce(
    market: Market, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Tuple[Allocation, PriceVector, object]]:
    """Exhaustive maximum of social welfare over all equilibria.

    Returns the first enumerated equilibrium attaining the maximum
    (allocations whose welfare cannot beat the best found are not re-tested,
    which does not change the result), or None when no equilibrium exists.
    """
    _check_cap(market, caps, systems=True)
    best = None
    for allocation in enumerate_allocations(market, caps):
        welfare = ZERO
        for i in range(market.n):
            welfare += _value(market, i, allocation.bundles[i])
        if best is not None and welfare <= best[2]:
            continue
        prices = _supporting_prices(market, allocation)
        if prices is not None:
            best = (allocation, prices, welfare)
    return best
