"""Independent brute-force ground truth for both valuation classes.

Everything here is deliberately re-implemented from scratch — enumeration,
utility evaluation and constraint assembly share no code with the solver
modules they are used to check (only the bare LP solver is reused).  The
additive deviation constraints are the full, unfiltered set over every
strictly better bundle.

Both searches draw on one walk over every owner tuple in one order.
Utilities and welfare are compared as ints over one positive scale that
each call computes from the market's values, so no rational is added in
the walk.  Each price system is built straight from its owner tuple, and
an `Allocation` only for the tuple a search returns.

Each strict "p(B) > 1" is encoded as "p(B) >= 1 + eps" with eps a maximized
variable, so the system is strictly satisfiable iff the optimum eps > 0.
The system is built as dense int rows, equality rows marked, and handed to
the simplex through `lp._solve_rows`, with no LP record in between; prices
are made rational only for a tuple they support.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, Optional, Tuple

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

def _owners(market: Market, caps: SearchCaps, systems: bool = False) -> Iterator[Tuple[int, ...]]:
    """The owner tuples in `enumerate_allocations`'s order, an item's owner
    0 when it is unsold and k + 1 when buyer k holds it.  The cap is
    checked once, when this is called, over the (n+1)^m states, and with
    `systems` over every bundle of an additive state's price system."""
    size, what = (market.n + 1) ** market.m, "(n+1)^m states"
    if systems and market.market_class != LEONTIEF:
        size, what = size * (market.n << market.m), "(n+1)^m * n * 2^m bundles"
    if size > caps.max_states:
        raise SearchCapExceeded(f"enumeration over {market.n} buyers and {market.m} items, {what}",
                                "max_states", size, caps.max_states)
    return itertools.product(range(market.n + 1), repeat=market.m)


def _allocation(n: int, owners: Tuple[int, ...]) -> Allocation:
    bundles = [[] for _ in range(n)]
    for j, owner in enumerate(owners):
        if owner:
            bundles[owner - 1].append(j)
    return Allocation(frozenset(b) for b in bundles)


def _scores(market: Market) -> Tuple[int, Callable[[tuple], int], Callable[[tuple], list]]:
    """A positive scale, `welfare(owners)`, the welfare of an owner tuple
    times that scale, an int, and `deviators(owners)`, the deviator rows
    `-p(D) + eps <= -1` of its price system in buyer order.  A Leontief
    buyer is worth its utility, 1 / (its highest value), when it owns every
    item it values, and 0 otherwise; its one deviator is that demand set
    when it lacks part of it.  An additive item is worth its owner's value,
    and 0 unsold; a buyer's deviators are every bundle its scaled row
    values above its own."""
    m = market.m
    if market.market_class == LEONTIEF:
        wanted = [[j for j in range(m) if row[j] > 0] for row in market.values]
        utilities = [min(ONE / row[j] for j in items) for row, items in zip(market.values, wanted)]
        scale = math.lcm(*(u.denominator for u in utilities))
        buyers = [(k, items, u.numerator * (scale // u.denominator))
                  for k, (items, u) in enumerate(zip(wanted, utilities), 1)]
        demand = [(k, items, [-int(j in items) for j in range(m)] + [1, -1]) for k, items, _ in buyers]

        def welfare(owners):
            total = 0
            for k, items, utility in buyers:
                for j in items:
                    if owners[j] != k:
                        break
                else:
                    total += utility
            return total

        def deviators(owners):
            return [row[:] for k, items, row in demand if any(owners[j] != k for j in items)]
    else:
        scale = math.lcm(*(v.denominator for row in market.values for v in row))
        scaled = [[v.numerator * (scale // v.denominator) for v in row] for row in market.values]
        items = [(0, *column) for column in zip(*scaled)]  # item j's worth per owner, unsold first

        def welfare(owners):
            return sum(map(tuple.__getitem__, items, owners))

        def deviators(owners):
            rows = []
            for k, row in enumerate(scaled, 1):
                own = sum(v for v, owner in zip(row, owners) if owner == k)
                rows += [[-p for p in picks] + [1, -1] for picks in itertools.product((0, 1), repeat=m)
                         if sum(itertools.compress(row, picks)) > own]
            return rows
    return scale, welfare, deviators


def enumerate_allocations(market: Market, caps: SearchCaps = DEFAULT_CAPS) -> Iterator[Allocation]:
    """Every assignment of items to buyers-or-unsold, exactly once.

    Item-major order: the stream counts through owner tuples
    (owner of item 0, owner of item 1, ...) lexicographically with owner
    order (unsold, buyer 0, ..., buyer n-1), so the all-unsold allocation
    comes first.  The order is a pure function of (n, m).
    """
    for owners in _owners(market, caps):
        yield _allocation(market.n, owners)


def _equilibria(market: Market, caps: SearchCaps) -> Iterator[Tuple[tuple, PriceVector, Fraction]]:
    """Each owner tuple, in enumeration order, whose price system is
    strictly satisfiable and whose welfare beats every one yielded before,
    with its prices and that welfare: the first is the first equilibrium,
    the last the first to attain the maximum welfare.  A tuple that leaves
    a buyer with nothing (it can never spend its budget), or that cannot
    beat the best, is skipped untested.

    The system is int rows over the prices 0..m-1 and eps = m, each its
    coefficients then its right-hand side: the equality rows, unsold
    `p_j = 0` then each bundle `p(B) = 1`, then the deviator rows and
    `eps <= 1`."""
    n, m = market.n, market.m
    scale, welfare, deviators = _scores(market)
    everyone = frozenset(range(1, n + 1))
    best = None
    for owners in _owners(market, caps, systems=True):
        if not everyone.issubset(owners):
            continue
        score = welfare(owners)
        if best is not None and score <= best:
            continue
        fixed = [[int(k == j) for k in range(m)] + [0, 0] for j, owner in enumerate(owners) if not owner]
        fixed += [[int(owner == k) for owner in owners] + [0, 1] for k in range(1, n + 1)]
        free = deviators(owners) + [[0] * m + [1, 1]]
        status, x, den = lp._solve_rows(fixed + free, [True] * len(fixed) + [False] * len(free), [0] * m + [1])
        if status == lp.OPTIMAL and x[m] > 0:
            best = score
            yield owners, PriceVector([Fraction(v, den) if v else ZERO for v in x[:m]]), Fraction(score, scale)


def equilibrium_exists_bruteforce(
    market: Market, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Tuple[Allocation, PriceVector]]:
    """First allocation in the enumeration order that admits strictly
    satisfying prices, with those prices; None when no equilibrium exists.
    An allocation that leaves a buyer with nothing can never spend its
    budget, so it is skipped untested."""
    for owners, prices, _ in _equilibria(market, caps):
        return _allocation(market.n, owners), prices
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
    best = None
    for best in _equilibria(market, caps):
        pass
    return None if best is None else (_allocation(market.n, best[0]), *best[1:])
