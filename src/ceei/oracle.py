"""Independent brute-force ground truth for both valuation classes.

Everything here is deliberately re-implemented from scratch — enumeration,
utility evaluation and constraint assembly share no code with the solver
modules they are used to check (only the bare LP solver is reused).  The
additive deviation constraints are the full, unfiltered set over every
strictly better bundle.

Both searches walk, in enumeration order, only the owner tuples that leave
no buyer empty, built directly.  The existence search returns the first
tuple its system supports.  The welfare search first collects the welfare
levels of those tuples, then tests each level's tuples from the highest
level down, so it never tests a tuple worth less than its answer.
Welfare is compared as ints over one positive scale that each call
computes from the market's values, so no rational is added in a walk.
Each price system is built straight from its owner tuple, and an
`Allocation` only for the tuple a search returns.

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

def _check_cap(market: Market, caps: SearchCaps, systems: bool = False) -> None:
    """SearchCapExceeded past the cap over the (n+1)^m owner tuples, and
    with `systems` over every bundle of an additive tuple's price system."""
    size, what = (market.n + 1) ** market.m, "(n+1)^m states"
    if systems and market.market_class != LEONTIEF:
        size, what = size * (market.n << market.m), "(n+1)^m * n * 2^m bundles"
    if size > caps.max_states:
        raise SearchCapExceeded(f"enumeration over {market.n} buyers and {market.m} items, {what}",
                                "max_states", size, caps.max_states)


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
    _check_cap(market, caps)
    for owners in itertools.product(range(market.n + 1), repeat=market.m):
        yield _allocation(market.n, owners)


def _candidates(market: Market, caps: SearchCaps) -> Iterator[Tuple[int, ...]]:
    """The owner tuples that leave no buyer empty, in enumeration order, an
    item's owner 0 when it is unsold and k + 1 when buyer k holds it: a
    buyer with nothing can never spend its budget, so no other tuple is an
    equilibrium.  The cap is checked when this is called.

    The tuples are built, not filtered from all (n+1)^m, so a walk costs
    what its candidates cost: once every buyer holds an item the items
    left take any owners, and once the buyers still empty are as many as
    the items left those items go to them, one each."""
    n, m = market.n, market.m
    _check_cap(market, caps, systems=True)

    def extend(prefix, missing):
        left = m - len(prefix)
        if not missing:
            for rest in itertools.product(range(n + 1), repeat=left):
                yield prefix + rest
        elif len(missing) == left:
            for rest in itertools.permutations(sorted(missing)):
                yield prefix + rest
        else:
            for owner in range(n + 1):
                yield from extend(prefix + (owner,), missing - {owner})

    return extend((), frozenset(range(1, n + 1))) if n <= m else iter(())


def _prices(market: Market, owners: tuple, deviators: Callable[[tuple], list]) -> Optional[PriceVector]:
    """Prices strictly supporting the owner tuple, or None when its system
    has no strict solution.

    The system is int rows over the prices 0..m-1 and eps = m, each its
    coefficients then its right-hand side: the equality rows, unsold
    `p_j = 0` then each bundle `p(B) = 1`, then the deviator rows and
    `eps <= 1`."""
    n, m = market.n, market.m
    fixed = [[int(k == j) for k in range(m)] + [0, 0] for j, owner in enumerate(owners) if not owner]
    fixed += [[int(owner == k) for owner in owners] + [0, 1] for k in range(1, n + 1)]
    free = deviators(owners) + [[0] * m + [1, 1]]
    status, x, den = lp._solve_rows(fixed + free, [True] * len(fixed) + [False] * len(free), [0] * m + [1])
    if status == lp.OPTIMAL and x[m] > 0:
        return PriceVector([Fraction(v, den) if v else ZERO for v in x[:m]])
    return None


def equilibrium_exists_bruteforce(
    market: Market, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Tuple[Allocation, PriceVector]]:
    """First allocation in the enumeration order that admits strictly
    satisfying prices, with those prices; None when no equilibrium exists.
    An allocation that leaves a buyer with nothing can never spend its
    budget, so it is skipped untested."""
    _, _, deviators = _scores(market)
    for owners in _candidates(market, caps):
        prices = _prices(market, owners, deviators)
        if prices is not None:
            return _allocation(market.n, owners), prices
    return None


def max_welfare_equilibrium_bruteforce(
    market: Market, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Tuple[Allocation, PriceVector, object]]:
    """Exhaustive maximum of social welfare over all equilibria.

    Returns the first enumerated equilibrium attaining the maximum, with
    its welfare as a `Fraction`, or None when no equilibrium exists.  One
    walk with no LP collects the welfare levels of the tuples that leave no
    buyer empty; then, from the highest level down, a walk per level tests
    that level's tuples in enumeration order and the first supported one
    is the answer.  No tuple above the best equilibrium's welfare is
    supported, so this tests no tuple worth less than the answer, and
    keeps one int per level, not the tuples.
    """
    scale, welfare, deviators = _scores(market)
    for level in sorted(set(map(welfare, _candidates(market, caps))), reverse=True):
        for owners in _candidates(market, caps):
            if welfare(owners) == level:
                prices = _prices(market, owners, deviators)
                if prices is not None:
                    return _allocation(market.n, owners), prices, Fraction(level, scale)
    return None
