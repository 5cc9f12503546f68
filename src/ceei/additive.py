"""Perfect-substitutes (additive) market operations.

Buyer optimality here is a knapsack-like question, so verification and both
one-side searches enumerate bundles exhaustively; every operation is exact
and guarded by hard caps.  Deviation constraints feed the same strict-price
device as the Leontief side: a bundle strictly better than the assigned one
must cost at least 1 + eps for a maximized slack eps, and the system counts
as strictly satisfiable only when the optimal eps is positive.

The enumerations run on Python ints.  Each buyer's value row is scaled by
the LCM of its denominators (comparisons within one buyer's row do not
change under the scale), and the prices are put over one common
denominator D, so "cost <= 1" becomes "cost <= D" and "spend = 1" becomes
"spend = D".  Rationals are made only for returned values.
"""

from __future__ import annotations

from math import floor
from typing import Iterable, List, Optional, Tuple

from . import lp
from .core import (
    ADDITIVE,
    DEFAULT_CAPS,
    SUBOPTIMAL_BUNDLE,
    ZERO,
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
    rational,
)


def _require_additive(market: Market) -> None:
    if market.market_class != ADDITIVE:
        raise ValueError("operation requires a perfect-substitutes market")


def additive_utility(market: Market, buyer: int, bundle: Iterable[int]):
    """Sum of the buyer's values over the bundle."""
    row = market.values[buyer]
    total = ZERO
    for j in bundle:
        total += row[j]
    return total


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
    """Decide whether (allocation, prices) is a competitive equilibrium.

    After the feasibility, clearing and budget checks, each buyer's assigned
    utility is compared against its exhaustively computed best affordable
    value; a losing comparison is reported with the better bundle as the
    witness, so the verdict can be rechecked independently.
    """
    _require_additive(market)
    _check_enum_cap(market, caps)
    for found in (
        check_feasible(market, allocation),
        check_clearing(market, allocation, prices),
        check_budgets(market, allocation, prices),
    ):
        if found is not None:
            return EquilibriumReport.fail(found)
    for i in range(market.n):
        bundle, value = best_affordable_bundle(market, i, prices, caps)
        if value > additive_utility(market, i, allocation.bundles[i]):
            return EquilibriumReport.fail(Violation(SUBOPTIMAL_BUNDLE, buyer=i, witness=bundle))
    return EquilibriumReport.ok()


def _minimal_deviating_bundles(market: Market, buyer: int, target) -> List[frozenset]:
    """Inclusion-minimal bundles worth strictly more than `target`.

    Supersets are dropped: prices are nonnegative, so once a bundle is
    priced above budget every superset is too.  Zero-value items never
    appear in a minimal deviator.  Values are summed as the buyer's scaled
    ints; an int exceeds `target * scale` iff it exceeds its floor.
    """
    row, scale = integer_row(market.values[buyer])
    limit = floor(target * scale)
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
    """The price-recovery system for a fixed feasible allocation.

    Variables 0..m-1 are item prices, variable m the strictness slack:
    unsold items priced zero, every bundle costs exactly 1, and every bundle
    a buyer strictly prefers must cost at least 1 + slack.
    """
    _require_additive(market)
    _check_enum_cap(market, caps)
    m = market.m
    eps = m
    cons = []
    sold = set()
    for bundle in allocation.bundles:
        sold.update(bundle)
    for j in range(m):
        if j not in sold:
            cons.append(lp.constraint({j: 1}, lp.EQ, 0))
    for i, bundle in enumerate(allocation.bundles):
        if not bundle:
            raise ValueError(f"buyer {i} has an empty bundle; no prices can exhaust its budget")
        cons.append(lp.constraint({j: 1 for j in bundle}, lp.EQ, 1))
        for deviator in _minimal_deviating_bundles(market, i, additive_utility(market, i, bundle)):
            coeffs = {j: -1 for j in deviator}
            coeffs[eps] = 1
            cons.append(lp.constraint(coeffs, lp.LE, -1))
    cons.append(lp.constraint({eps: 1}, lp.LE, 1))
    return lp.lp_problem(m + 1, cons, {eps: 1})


def prices_for_allocation(
    market: Market, allocation: Allocation, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[PriceVector]:
    """Prices making the given allocation an equilibrium, or None."""
    _require_additive(market)
    if check_feasible(market, allocation) is not None:
        return None
    if any(not b for b in allocation.bundles):
        return None
    # A deviator contained in some bundle-plus-unsold costs at most 1 under
    # the system's own constraints, so the strict version is unsatisfiable.
    sold = set()
    for bundle in allocation.bundles:
        sold.update(bundle)
    unsold = frozenset(range(market.m)) - sold
    for i, bundle in enumerate(allocation.bundles):
        target = additive_utility(market, i, bundle)
        for deviator in _minimal_deviating_bundles(market, i, target):
            if any(deviator <= other | unsold for other in allocation.bundles):
                return None
    result = lp.solve_lp(price_support_lp(market, allocation, caps))
    if result.status != lp.OPTIMAL or result.value <= 0:
        return None
    return PriceVector(result.point[: market.m])


def _check_assignment_cap(market: Market, caps: SearchCaps) -> None:
    if market.m > caps.max_items or (market.n + 1) ** market.m > caps.max_states:
        raise SearchCapExceeded(
            f"assignment search over {market.n} buyers and {market.m} items exceeds the cap"
        )


def allocation_for_prices(
    market: Market, prices: PriceVector, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Allocation]:
    """First allocation (in the deterministic assignment order) that forms an
    equilibrium with the given prices, or None.

    Same enumeration order as the Leontief search: items in index order,
    buyers in index order, unsold last.  Sound cuts only: an item can stay
    unsold only at price zero and only if nobody values it (otherwise that
    buyer could add it for free), and a buyer's spend can never exceed 1.
    Spend is tracked in ints over the prices' common denominator D.
    """
    _require_additive(market)
    _check_assignment_cap(market, caps)
    _check_enum_cap(market, caps)
    n, m = market.n, market.m
    p, den = integer_row(prices.prices)
    unsellable = [all(market.values[i][j] == 0 for i in range(n)) for j in range(m)]
    bundles = [[] for _ in range(n)]
    spend = [0] * n

    def assign(j: int) -> Optional[Allocation]:
        if j == m:
            if any(s != den for s in spend):
                return None
            candidate = Allocation(tuple(frozenset(b) for b in bundles))
            if verify_equilibrium(market, candidate, prices, caps).equilibrium:
                return candidate
            return None
        for i in range(n):
            if spend[i] + p[j] <= den:
                bundles[i].append(j)
                spend[i] += p[j]
                found = assign(j + 1)
                if found is not None:
                    return found
                bundles[i].pop()
                spend[i] -= p[j]
        if p[j] == 0 and unsellable[j]:
            return assign(j + 1)
        return None

    return assign(0)


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
