"""Perfect-substitutes (additive) market operations.

Buyer optimality here is a knapsack-like question, so verification and both
one-side searches enumerate bundles exhaustively; every operation is exact
and guarded by hard caps.  To the skeleton in `ceei.equilibrium` this module
adds the knapsack best response (its maximizer is the violation witness),
the inclusion-minimal strictly better bundles as deviators, and the rule
that a zero-priced item may stay unsold only when no buyer values it.

The enumerations run on Python ints.  Each buyer's value row is scaled by
the LCM of its denominators (comparisons within one buyer's row do not
change under the scale), and the prices are put over one common
denominator D, so "cost <= 1" becomes "cost <= D" and "spend = 1" becomes
"spend = D".  Rationals are made only for returned values.
"""

from __future__ import annotations

from functools import partial
from math import floor
from typing import List, Optional, Tuple

from . import equilibrium, lp
from .core import (
    ADDITIVE,
    DEFAULT_CAPS,
    Allocation,
    EquilibriumReport,
    Market,
    PriceVector,
    SearchCapExceeded,
    SearchCaps,
    bundle_utility,
    integer_row,
    rational,
)
from .equilibrium import _check_assignment_cap


def _require_additive(market: Market) -> None:
    if market.market_class != ADDITIVE:
        raise ValueError("operation requires a perfect-substitutes market")


def _check_enum_cap(market: Market, caps: SearchCaps) -> None:
    if market.m > caps.max_enum_items:
        raise SearchCapExceeded(
            f"bundle enumeration over {market.m} items exceeds the cap of {caps.max_enum_items}"
        )


def best_affordable_bundle(
    market: Market, buyer: int, prices: PriceVector, caps: SearchCaps = DEFAULT_CAPS
) -> Tuple[frozenset, object]:
    """A utility-maximal bundle of total price at most 1, with its value.

    Only items the buyer values positively are considered (zero-value items
    change nothing but the price), and among maximizers the first bundle in
    binary subset order over ascending item indices is returned, so the
    result is deterministic.  Values and costs are summed as scaled ints
    (budget test cost <= D); the value is made rational once, on return.
    """
    _require_additive(market)
    _check_enum_cap(market, caps)
    row, scale = integer_row(market.values[buyer])
    costs, den = integer_row(prices.prices)
    pos = [j for j, v in enumerate(row) if v > 0]
    best_mask, best = 0, 0
    for mask in range(1, 1 << len(pos)):
        value = cost = 0
        for t, j in enumerate(pos):
            if mask >> t & 1:
                value += row[j]
                cost += costs[j]
        if cost <= den and value > best:
            best_mask, best = mask, value
    bundle = frozenset(j for t, j in enumerate(pos) if best_mask >> t & 1)
    return bundle, rational(best, scale)


def verify_equilibrium(
    market: Market, allocation: Allocation, prices: PriceVector, caps: SearchCaps = DEFAULT_CAPS
) -> EquilibriumReport:
    """Decide whether (allocation, prices) is a competitive equilibrium: the
    shared checks, where each buyer's assigned utility is compared against
    its exhaustively computed best affordable value; a losing comparison is
    reported with the better bundle as the witness, so the verdict can be
    rechecked independently."""
    _require_additive(market)
    _check_enum_cap(market, caps)

    def better_bundle(i: int) -> Optional[frozenset]:
        bundle, value = best_affordable_bundle(market, i, prices, caps)
        return bundle if value > bundle_utility(market, i, allocation.bundles[i]) else None

    return equilibrium.verify_equilibrium(market, allocation, prices, better_bundle)


def _minimal_deviating_bundles(
    market: Market, buyer: int, bundle: frozenset, caps: SearchCaps
) -> List[frozenset]:
    """Inclusion-minimal bundles worth strictly more than `bundle`.

    Supersets are dropped: prices are nonnegative, so once a bundle is
    priced above budget every superset is too.  Zero-value items never
    appear in a minimal deviator.  Values are summed as the buyer's scaled
    ints; an int exceeds `utility * scale` iff it exceeds its floor.
    """
    _check_enum_cap(market, caps)
    row, scale = integer_row(market.values[buyer])
    limit = floor(bundle_utility(market, buyer, bundle) * scale)
    pos = [j for j, v in enumerate(row) if v > 0]
    deviators = []
    for mask in range(1, 1 << len(pos)):
        value = 0
        for t, j in enumerate(pos):
            if mask >> t & 1:
                value += row[j]
        if value > limit:
            deviators.append(mask)
    deviators.sort(key=lambda m: bin(m).count("1"))
    minimal = []
    for mask in deviators:
        if not any(kept & mask == kept for kept in minimal):
            minimal.append(mask)
    return [frozenset(j for t, j in enumerate(pos) if mask >> t & 1) for mask in minimal]


def price_support_lp(
    market: Market, allocation: Allocation, caps: SearchCaps = DEFAULT_CAPS
) -> lp.LPProblem:
    """The shared price-recovery system, where every minimal bundle a buyer
    strictly prefers to its own must cost at least 1 + slack."""
    _require_additive(market)
    _check_enum_cap(market, caps)
    deviators = partial(_minimal_deviating_bundles, market, caps=caps)
    return equilibrium.price_support_lp(market, allocation, deviators)


def prices_for_allocation(
    market: Market, allocation: Allocation, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[PriceVector]:
    """Prices making the given allocation an equilibrium, or None."""
    _require_additive(market)
    deviators = partial(_minimal_deviating_bundles, market, caps=caps)
    return equilibrium.prices_for_allocation(market, allocation, deviators)


def allocation_for_prices(
    market: Market, prices: PriceVector, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Allocation]:
    """First allocation, in the shared deterministic assignment order, that
    forms an equilibrium with the given prices, or None.  A zero-priced item
    may stay unsold only if nobody values it (otherwise that buyer could
    add it for free)."""
    _require_additive(market)
    _check_assignment_cap(market, caps)
    _check_enum_cap(market, caps)
    unsellable = [all(row[j] == 0 for row in market.values) for j in range(market.m)]
    return equilibrium.allocation_for_prices(
        market, prices, unsellable,
        lambda candidate: verify_equilibrium(market, candidate, prices, caps).equilibrium,
    )


def search_equilibrium(
    market: Market, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Tuple[Allocation, PriceVector]]:
    """First allocation in the deterministic assignment order that admits
    supporting prices, with those prices; None when no equilibrium exists.

    Sound cuts only, so the first price-supportable allocation is never
    skipped: an item may stay unsold only when no buyer values it (otherwise
    clearing would force its price to zero and some buyer would add it for
    free); allocations with an empty bundle can never exhaust that buyer's
    budget; and an envious buyer (one valuing another's bundle above its
    own) always has an affordable deviation, since bundles cost exactly 1.
    The envy screen is maintained incrementally, on each buyer's value row
    scaled to ints, so most leaves are rejected without touching the
    pricing system or any rational arithmetic.
    """
    _require_additive(market)
    _check_assignment_cap(market, caps)
    _check_enum_cap(market, caps)
    n, m = market.n, market.m
    values = [integer_row(row)[0] for row in market.values]
    unsellable = [all(values[i][j] == 0 for i in range(n)) for j in range(m)]
    bundles = [[] for _ in range(n)]
    cross = [[0] * n for _ in range(n)]  # cross[i][k] = buyer i's scaled value for bundle k

    def assign(j: int):
        if j == m:
            if not all(bundles) or any(max(row) > row[i] for i, row in enumerate(cross)):
                return None
            candidate = Allocation(tuple(frozenset(b) for b in bundles))
            found = prices_for_allocation(market, candidate, caps)
            if found is not None:
                return candidate, found
            return None
        for k in range(n):
            bundles[k].append(j)
            for i in range(n):
                cross[i][k] += values[i][j]
            result = assign(j + 1)
            if result is not None:
                return result
            bundles[k].pop()
            for i in range(n):
                cross[i][k] -= values[i][j]
        if unsellable[j]:
            return assign(j + 1)
        return None

    return assign(0)
