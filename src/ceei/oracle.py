"""Independent brute-force ground truth for both valuation classes.

Everything here is deliberately re-implemented from scratch — enumeration,
utility evaluation and constraint assembly share no code with the solver
modules they are used to check (only the bare LP solver is reused).  The
additive deviation constraints are the full, unfiltered set over every
strictly better bundle.

Both searches walk every owner tuple in one order.  Utilities and welfare
are compared as ints over one positive scale that each call computes from
the market's values, so no rational is added in the walk.  A tuple becomes
an `Allocation` only when it reaches the LP: every buyer holds an item and,
in the welfare search, its welfare beats the best found so far.

Each strict "p(B) > 1" is encoded as "p(B) >= 1 + eps" with eps a maximized
variable, so the system is strictly satisfiable iff the optimum eps > 0.
The system is built as dense int rows, equality rows marked, and handed to
the simplex through `lp._solve_rows`, with no LP record in between; prices
are made rational only for an allocation they support.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Tuple

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


def _owners(market: Market, caps: SearchCaps) -> Iterator[Tuple[int, ...]]:
    """The owner tuples in `enumerate_allocations`'s order, an item's owner
    0 when it is unsold and k + 1 when buyer k holds it.  The cap is
    checked once, when this is called."""
    _check_cap(market, caps)
    return itertools.product(range(market.n + 1), repeat=market.m)


def _allocation(n: int, owners: Tuple[int, ...]) -> Allocation:
    bundles = [[] for _ in range(n)]
    for j, owner in enumerate(owners):
        if owner:
            bundles[owner - 1].append(j)
    return Allocation(frozenset(b) for b in bundles)


def _scaled_values(market: Market) -> Tuple[int, List[List[int]]]:
    """The common denominator of every value, and each value times it."""
    scale = math.lcm(*(v.denominator for row in market.values for v in row))
    return scale, [[v.numerator * (scale // v.denominator) for v in row] for row in market.values]


def _scores(market: Market) -> Tuple[int, Callable[[Tuple[int, ...]], int]]:
    """A positive scale and `welfare(owners)`, the welfare of an owner
    tuple times that scale, an int.  A Leontief buyer is worth its
    utility, 1 / (its highest value), when it owns every item it values,
    and 0 otherwise; an additive item is worth its owner's value, and 0
    unsold."""
    m = market.m
    if market.market_class == LEONTIEF:
        wanted = [[j for j in range(m) if row[j] > 0] for row in market.values]
        utilities = [min(ONE / row[j] for j in items) for row, items in zip(market.values, wanted)]
        scale = math.lcm(*(u.denominator for u in utilities))
        buyers = [(k, items, u.numerator * (scale // u.denominator))
                  for k, (items, u) in enumerate(zip(wanted, utilities), 1)]

        def welfare(owners):
            total = 0
            for k, items, utility in buyers:
                for j in items:
                    if owners[j] != k:
                        break
                else:
                    total += utility
            return total
    else:
        scale, rows = _scaled_values(market)
        items = [(0, *column) for column in zip(*rows)]  # item j's worth per owner, unsold first

        def welfare(owners):
            return sum(map(tuple.__getitem__, items, owners))
    return scale, welfare


def enumerate_allocations(market: Market, caps: SearchCaps = DEFAULT_CAPS) -> Iterator[Allocation]:
    """Every assignment of items to buyers-or-unsold, exactly once.

    Item-major order: the stream counts through owner tuples
    (owner of item 0, owner of item 1, ...) lexicographically with owner
    order (unsold, buyer 0, ..., buyer n-1), so the all-unsold allocation
    comes first.  The order is a pure function of (n, m).
    """
    for owners in _owners(market, caps):
        yield _allocation(market.n, owners)


def _support_system(market: Market, allocation: Allocation) -> Tuple[list, list]:
    """Price system for one candidate allocation, every bundle nonempty, as
    int rows over the prices 0..m-1 and eps = m, each its coefficients then
    its right-hand side, and a flag per row marking the equality rows:
    unsold `p_j = 0`, each bundle `p(B) = 1`, each deviator
    `-p(D) + eps <= -1`, then `eps <= 1`.  An additive buyer's deviators
    are every bundle whose scaled value sum beats its own."""
    n, m = market.n, market.m
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
        _, scaled = _scaled_values(market)
        for row, bundle in zip(scaled, allocation.bundles):
            assigned = sum(row[j] for j in bundle)
            for picks in itertools.product((0, 1), repeat=m):
                if sum(itertools.compress(row, picks)) > assigned:
                    rows.append([-p for p in picks] + [1, -1])
    rows.append([0] * m + [1, 1])
    eq += [False] * (len(rows) - len(eq))
    return rows, eq


def _supporting_prices(market: Market, allocation: Allocation) -> Optional[PriceVector]:
    status, scaled, den = lp._solve_rows(*_support_system(market, allocation), [0] * market.m + [1])
    if status != lp.OPTIMAL or scaled[market.m] <= 0:
        return None
    return PriceVector([Fraction(x, den) if x else ZERO for x in scaled[: market.m]])


def equilibrium_exists_bruteforce(
    market: Market, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Tuple[Allocation, PriceVector]]:
    """First allocation in the enumeration order that admits strictly
    satisfying prices, with those prices; None when no equilibrium exists.
    An allocation that leaves a buyer with nothing can never spend its
    budget, so it is skipped untested."""
    _check_cap(market, caps, systems=True)
    everyone = frozenset(range(1, market.n + 1))
    for owners in _owners(market, caps):
        if everyone.issubset(owners):
            allocation = _allocation(market.n, owners)
            prices = _supporting_prices(market, allocation)
            if prices is not None:
                return allocation, prices
    return None


def max_welfare_equilibrium_bruteforce(
    market: Market, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Tuple[Allocation, PriceVector, object]]:
    """Exhaustive maximum of social welfare over all equilibria.

    Returns the first enumerated equilibrium attaining the maximum
    (allocations whose welfare cannot beat the best found, or that leave a
    buyer with nothing, are not tested, which does not change the result),
    with its welfare as a `Fraction`, or None when no equilibrium exists.
    """
    _check_cap(market, caps, systems=True)
    scale, welfare = _scores(market)
    everyone = frozenset(range(1, market.n + 1))
    best = None
    for owners in _owners(market, caps):
        score = welfare(owners)
        if best is not None and score <= best[2]:
            continue
        if everyone.issubset(owners):
            allocation = _allocation(market.n, owners)
            prices = _supporting_prices(market, allocation)
            if prices is not None:
                best = (allocation, prices, score)
    return None if best is None else (best[0], best[1], Fraction(best[2], scale))
