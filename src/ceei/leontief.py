"""Perfect-complements (Leontief) market algorithms.

A buyer's utility is positive only when its whole demand set (the items it
values strictly positively) is received, so to the skeleton in
`ceei.equilibrium` this module adds one deviator per unserved buyer, its
demand set as an item mask.  Verification, equilibrium computation and
price recovery run in polynomial time.  The given-prices allocation search
and the welfare-optimal search are exact exponential enumerations guarded
by hard caps.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional, Tuple

from . import equilibrium, lp
from .core import (
    DEFAULT_CAPS,
    LEONTIEF,
    ONE,
    ZERO,
    Allocation,
    EquilibriumReport,
    Market,
    PriceVector,
    SearchCaps,
    _require_ints,
    bundle_utility,
    demand_items,
    integer_row,
)
from .equilibrium import _check_assignment_cap


def _require_leontief(market: Market) -> None:
    if market.market_class != LEONTIEF:
        raise ValueError("operation requires a perfect-complements market")


def _deviators(market: Market, buyer: int, bundle: frozenset) -> list:
    """The demand set as an item mask, unless the bundle already contains it."""
    demand = demand_items(market, buyer)
    return [] if demand <= bundle else [sum([1 << j for j in demand])]


def verify_equilibrium(market: Market, allocation: Allocation, prices: PriceVector) -> EquilibriumReport:
    """Decide whether (allocation, prices) is a competitive equilibrium: the
    shared checks, where a buyer missing part of its demand set must find
    the demand set unaffordable (priced strictly above 1).  Touches each
    (buyer, item) pair a constant number of times."""
    _require_leontief(market)
    return equilibrium.verify_equilibrium(market, allocation, prices, partial(_better_bundle, market, prices))


def _better_bundle(market: Market, prices: PriceVector, buyer: int, bundle: frozenset) -> Optional[frozenset]:
    """The buyer's demand set when `bundle` misses part of it and it costs at most 1."""
    demand = demand_items(market, buyer)
    if not demand <= bundle and sum((prices.prices[j] for j in demand), ZERO) <= 1:
        return demand
    return None


def price_support_lp(market: Market, allocation: Allocation) -> lp.LPProblem:
    """The shared price-recovery system, where a buyer missing part of its
    demand set needs the demand set priced at least e = 1 + slack."""
    _require_leontief(market)
    return equilibrium.price_support_lp(market, allocation, partial(_deviators, market))


def prices_for_allocation(market: Market, allocation: Allocation) -> Optional[PriceVector]:
    """Prices making the given allocation an equilibrium, or None."""
    _require_leontief(market)
    return equilibrium.prices_for_allocation(market, allocation, partial(_deviators, market))


def allocation_for_prices(
    market: Market, prices: PriceVector, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Allocation]:
    """First allocation, in the shared deterministic assignment order, that
    forms an equilibrium with the given prices, or None."""
    _require_leontief(market)
    _check_assignment_cap(market, caps)
    return equilibrium.allocation_for_prices(market, prices, partial(_better_bundle, market, prices))


def compute_equilibrium(market: Market) -> Optional[Tuple[Allocation, PriceVector]]:
    """Constructive equilibrium, or None exactly when none exists.

    No equilibrium exists iff there are fewer items than buyers or two
    buyers share an identical singleton demand set.  Otherwise buyers are
    processed in increasing order of demand-set size (ties by index); each
    receives the lowest-index unallocated item of its demand set, or the
    lowest-index unallocated item outright.  The buyer processed last also
    absorbs all leftover items.  Every bundle is priced uniformly so it
    costs exactly 1.
    """
    if no_equilibrium_reason(market) is not None:
        return None
    demands = [demand_items(market, i) for i in range(market.n)]
    bundles, _ = _assignment_plan(market, demands, range(market.n))
    return Allocation(tuple(bundles)), PriceVector(_uniform_prices(market, bundles))


def _uniform_prices(market: Market, bundles) -> list:
    """Each bundle's budget of 1 split evenly over its items; other items cost 0."""
    prices = [ZERO] * market.m
    for bundle in bundles:
        for j in bundle:
            prices[j] = ONE / len(bundle)
    return prices


def no_equilibrium_reason(market: Market) -> Optional[str]:
    """Why the market has no equilibrium, or None when it has one: "m < n"
    (fewer items than buyers) or "duplicate singleton demand sets" (two
    buyers demand the same single item)."""
    _require_leontief(market)
    if market.m < market.n:
        return "m < n"
    demands = [demand_items(market, i) for i in range(market.n)]
    singletons = [d for d in demands if len(d) == 1]
    if len(singletons) != len(set(singletons)):
        return "duplicate singleton demand sets"
    return None


def _assignment_plan(market: Market, demands, buyers, taken=frozenset()) -> Tuple[list, list]:
    """The constructive allocation loop over `buyers`, with the `taken` items
    already gone: singleton picks in demand-size order, leftovers to the
    buyer served last.  Returns (bundles, service order)."""
    m = market.m
    order = sorted(buyers, key=lambda i: (len(demands[i]), i))
    allocated = set(taken)
    bundles = [frozenset()] * market.n
    for i in order:
        free_demand = demands[i] - allocated
        pick = min(free_demand) if free_demand else min(set(range(m)) - allocated)
        bundles[i] = frozenset([pick])
        allocated.add(pick)
    if order:
        bundles[order[-1]] |= frozenset(range(m)) - allocated
    return bundles, order


def compute_equilibrium_prealloc(
    market: Market, excluded_buyer: int, preallocated_items: Iterable[int]
) -> Optional[Tuple[Allocation, PriceVector]]:
    """Run the constructive loop with one buyer excluded and a set of items
    already taken; used to complete an allocation that hands the excluded
    buyer its full demand set.

    The excluded buyer's bundle is left empty and the preallocated items are
    priced zero (the caller owns both).  Bundles are priced uniformly, but
    when the last processed buyer's bundle holds both items it wants and
    items it does not, it spreads (1 - eps) over the wanted items and eps
    over the unwanted ones.  eps is below 1/|D| for every demand set D, so
    an unwanted item's price never makes a missing demanded item affordable.
    A buyer or preallocated item that is not an int is a TypeError.
    """
    _require_leontief(market)
    prealloc = frozenset(_require_ints(preallocated_items))
    _require_ints((excluded_buyer,))
    if not prealloc <= frozenset(range(market.m)):
        raise ValueError("preallocated items out of range")
    if not 0 <= excluded_buyer < market.n:
        raise ValueError("excluded buyer out of range")
    if market.m - len(prealloc) < market.n - 1:
        raise ValueError("not enough free items for the remaining buyers")
    demands = [demand_items(market, i) for i in range(market.n)]
    remaining = [i for i in range(market.n) if i != excluded_buyer]
    bundles, order = _assignment_plan(market, demands, remaining, prealloc)
    prices = _uniform_prices(market, bundles)
    if order:
        last = order[-1]
        wanted = bundles[last] & demands[last]
        unwanted = bundles[last] - demands[last]
        if wanted and unwanted:
            eps = ONE / ((market.m + 1) * (max(len(d) for d in demands) + 1))
            for j in wanted:
                prices[j] = (ONE - eps) / len(wanted)
            for j in unwanted:
                prices[j] = eps / len(unwanted)
    return Allocation(tuple(bundles)), PriceVector(prices)


def compute_equilibrium_apx_welfare(market: Market) -> Optional[Tuple[Allocation, PriceVector]]:
    """Equilibrium whose social welfare is at least 1/n of the best welfare
    any equilibrium can achieve; None exactly when no equilibrium exists.

    A buyer can receive its full demand set in some equilibrium only if no
    other buyer's demand is contained in it and enough items remain for
    everyone else.  Among such eligible buyers, the one with the highest
    utility for its own demand (ties to the lowest index) is served fully at
    uniform prices, and the rest of the market is completed around it.  With
    no eligible buyer, every equilibrium has zero welfare and the basic
    construction is used as-is.
    """
    if no_equilibrium_reason(market) is not None:
        return None
    demands = [demand_items(market, i) for i in range(market.n)]
    n, m = market.n, market.m
    eligible = []
    for k in range(n):
        if m - len(demands[k]) < n - 1:
            continue
        if any(i != k and demands[i] <= demands[k] for i in range(n)):
            continue
        eligible.append(k)
    if not eligible:
        return compute_equilibrium(market)
    best = max(eligible, key=lambda k: bundle_utility(market, k, demands[k]))  # ties: lowest index
    sub_alloc, sub_prices = compute_equilibrium_prealloc(market, best, demands[best])
    bundles = list(sub_alloc.bundles)
    bundles[best] = demands[best]
    prices = list(sub_prices.prices)
    share = ONE / len(demands[best])
    for j in demands[best]:
        prices[j] = share
    return Allocation(tuple(bundles)), PriceVector(prices)


class _ServedTally:
    """The Leontief tally of `equilibrium.search`: its bound is the sum of
    the gains of the buyers none of whose placed demanded items went to
    another buyer.  Gains are ints over one common scale."""

    def __init__(self, market: Market):
        demands = [demand_items(market, i) for i in range(market.n)]
        self.gains, self.scale = integer_row([bundle_utility(market, i, d) for i, d in enumerate(demands)])
        self.wanted_by = [[i for i, d in enumerate(demands) if j in d] for j in range(market.m)]
        self.missed = [0] * market.n  # placed demanded items that went elsewhere
        self.bound = sum(self.gains)

    def place(self, j: int, owner: int) -> bool:
        for i in self.wanted_by[j]:
            if i != owner:
                if not self.missed[i]:
                    self.bound -= self.gains[i]
                self.missed[i] += 1
        return True

    def remove(self, j: int, owner: int) -> None:
        for i in self.wanted_by[j]:
            if i != owner:
                self.missed[i] -= 1
                if not self.missed[i]:
                    self.bound += self.gains[i]

    def screen(self) -> bool:
        return True


def optimal_welfare_equilibrium(
    market: Market, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Tuple[Allocation, PriceVector, object]]:
    """Exact welfare-maximal equilibrium by exhaustive search, or None: of
    the maximal-welfare equilibria, the one whose allocation comes first in
    the assignment order, with its prices and welfare.
    `equilibrium.search` with `_ServedTally`."""
    _require_leontief(market)
    _check_assignment_cap(market, caps)
    return equilibrium.search(market, _ServedTally(market), partial(prices_for_allocation, market))
