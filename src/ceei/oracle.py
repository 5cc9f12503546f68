"""Independent brute-force ground truth for both valuation classes.

Everything here is deliberately re-implemented from scratch — enumeration,
utility evaluation and constraint assembly share no code with the solver
modules they are used to check (only the bare LP solver is reused).  The
additive deviation constraints are the full, unfiltered set over every
strictly better bundle.

Each strict "p(B) > 1" is encoded as "p(B) >= 1 + eps" with eps a maximized
variable, so the system is strictly satisfiable iff the optimum eps > 0.
The system is built as dense int rows, equality rows marked, and handed to
the simplex through `lp._solve_rows`, with no LP record in between; prices
are made rational only for an allocation they support.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
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


def _support_system(market: Market, allocation: Allocation) -> Optional[Tuple[list, list]]:
    """Price system for one candidate allocation as int rows over the prices
    0..m-1 and eps = m, each its coefficients then its right-hand side, and
    a flag per row marking the equality rows: unsold `p_j = 0`, each bundle
    `p(B) = 1`, each deviator `-p(D) + eps <= -1`, then `eps <= 1`.  None
    when a budget can never be met (some bundle is empty)."""
    n, m = market.n, market.m
    if any(not b for b in allocation.bundles):
        return None
    sold = frozenset(j for b in allocation.bundles for j in b)
    rows = [[int(k == j) for k in range(m)] + [0, 0] for j in range(m) if j not in sold]
    rows += [[int(j in bundle) for j in range(m)] + [0, 1] for bundle in allocation.bundles]
    eq = [True] * len(rows)
    if market.market_class == LEONTIEF:
        for i in range(n):
            wanted = frozenset(j for j in range(m) if market.values[i][j] > 0)
            if not wanted <= allocation.bundles[i]:
                rows.append([-int(j in wanted) for j in range(m)] + [1, -1])
    else:
        for i in range(n):
            assigned = _value(market, i, allocation.bundles[i])
            for picks in itertools.product((False, True), repeat=m):
                bundle = [j for j in range(m) if picks[j]]
                if bundle and _value(market, i, bundle) > assigned:
                    rows.append([-int(p) for p in picks] + [1, -1])
    rows.append([0] * m + [1, 1])
    eq += [False] * (len(rows) - len(eq))
    return rows, eq


def _supporting_prices(market: Market, allocation: Allocation) -> Optional[PriceVector]:
    system = _support_system(market, allocation)
    if system is None:
        return None
    status, scaled, den = lp._solve_rows(*system, [0] * market.m + [1])
    if status != lp.OPTIMAL or scaled[market.m] <= 0:
        return None
    return PriceVector([Fraction(x, den) if x else ZERO for x in scaled[: market.m]])


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
