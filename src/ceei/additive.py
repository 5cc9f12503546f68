"""Perfect-substitutes (additive) market operations.

Buyer optimality here is a knapsack-like question, so verification and both
one-side searches enumerate bundles exhaustively; every operation is exact
and guarded by hard caps.  To the skeleton in `ceei.equilibrium` this module
adds the knapsack best response (its maximizer is the violation witness),
the inclusion-minimal strictly better bundles as deviators, and the tallies
`equilibrium.search` runs on, `_ValueTally` and `_EnvyTally`.  Each public
entry point checks the enumeration cap once; the helpers it calls do not
check it again.

The enumerations run on Python ints.  In the bundle enumerations each
buyer's value row is scaled by the LCM of its denominators (comparisons
within one buyer's row do not change under the scale), and the prices are
put over one common denominator D, so "cost <= 1" becomes "cost <= D" and
"spend = 1" becomes "spend = D".  The assignment searches scale all rows by
one common LCM instead, since their welfare bound and swap bound add values
of different buyers; their envy screen compares values within one row, so
it answers the same on either scale.  Rationals are made only for returned
values.

The swap bound (after the envy graph of Lipton, Markakis, Mossel & Saberi,
EC 2004): every bundle of an equilibrium costs the whole budget, so no
buyer envies another, and for buyers i < k the swap excess

    E_ik = v_i(B_k) - v_i(B_i) + v_k(B_i) - v_k(B_k)

is at most 0.  Placing item j moves E_ik by v_k(j) - v_i(j) (to i), by
v_i(j) - v_k(j) (to k) or not at all, so by at most |v_i(j) - v_k(j)|.  A
partial assignment whose E_ik exceeds the sum of |v_i(j') - v_k(j')| over
the items j' not yet placed has no envy-free completion and is cut.  Items
both buyers value equally give the pair no slack.  The tallies apply the
bound eagerly, as each item is placed; a complete assignment keeps no
slack, since there the envy screen decides, and it rejects every
assignment with a positive swap excess.
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
from .equilibrium import _check_assignment_cap, _check_prices


def _require_additive(market: Market) -> None:
    if market.market_class != ADDITIVE:
        raise ValueError("operation requires a perfect-substitutes market")


def _check_enum_cap(market: Market, caps: SearchCaps) -> None:
    if market.m > caps.max_enum_items:
        raise SearchCapExceeded(
            "bundle enumeration, m items", "max_enum_items", market.m, caps.max_enum_items
        )


def best_affordable_bundle(
    market: Market, buyer: int, prices: PriceVector, caps: SearchCaps = DEFAULT_CAPS
) -> Tuple[frozenset, object]:
    """A utility-maximal bundle of total price at most 1, with its value.

    Only items the buyer values positively are considered (zero-value items
    change nothing but the price), and among maximizers the first bundle in
    binary subset order over ascending item indices is returned, so the
    result is deterministic.  Values and costs are summed as scaled ints
    (budget test cost <= D), each subset's taking one step from the subset
    without its lowest bit; the value is made rational once, on return.
    """
    _require_additive(market)
    _check_enum_cap(market, caps)
    _check_prices(market, prices)
    return _best_affordable_bundle(market, buyer, prices)


def _best_affordable_bundle(market: Market, buyer: int, prices: PriceVector) -> Tuple[frozenset, object]:
    row, scale = integer_row(market.values[buyer])
    costs, den = integer_row(prices.prices)
    pos = [j for j, v in enumerate(row) if v > 0]
    items = [(row[j], costs[j]) for j in pos]
    value = [0] * (1 << len(pos))
    cost = value[:]
    best_mask, best = 0, 0
    for mask in range(1, len(value)):
        rest = mask & (mask - 1)
        item, price = items[(mask ^ rest).bit_length() - 1]
        value[mask] = total = value[rest] + item
        cost[mask] = spend = cost[rest] + price
        if spend <= den and total > best:
            best_mask, best = mask, total
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
    return equilibrium.verify_equilibrium(market, allocation, prices, partial(_better_bundle, market, prices))


def _better_bundle(market: Market, prices: PriceVector, buyer: int, bundle: frozenset) -> Optional[frozenset]:
    """The buyer's best affordable bundle when it is worth more than `bundle`."""
    best, value = _best_affordable_bundle(market, buyer, prices)
    return best if value > bundle_utility(market, buyer, bundle) else None


def _minimal_deviating_bundles(market: Market, buyer: int, bundle: frozenset) -> List[frozenset]:
    """Inclusion-minimal bundles worth strictly more than `bundle`, by size,
    then by binary mask over the positively valued items in index order.

    Supersets are dropped: prices are nonnegative, so once a bundle is
    priced above budget every superset is too.  Zero-value items never
    appear in a minimal deviator.  Every other item adds value, so the
    deviators are closed upward, and one is minimal iff dropping its
    least-valued item leaves it worth no more than `bundle`.  The walk takes
    those items in ascending value order (ties by index), so the item a
    subset's lowest bit adds to `rest`, the subset without it, is its least
    valued: a subset is minimal iff `value[mask] > limit >= value[rest]`.
    Values are summed as the buyer's scaled ints; an int exceeds
    `utility * scale` iff it exceeds its floor.
    """
    row, scale = integer_row(market.values[buyer])
    limit = floor(bundle_utility(market, buyer, bundle) * scale)
    pos = sorted((j for j, v in enumerate(row) if v > 0), key=row.__getitem__)
    items = [row[j] for j in pos]
    value = [0] * (1 << len(pos))
    minimal = []
    for mask in range(1, len(value)):
        rest = mask & (mask - 1)
        value[mask] = total = value[rest] + items[(mask ^ rest).bit_length() - 1]
        if total > limit >= value[rest]:
            minimal.append(frozenset(j for t, j in enumerate(pos) if mask >> t & 1))
    # no deviator holds a zero-value item, so its mask over all item indices
    # orders it as the mask over the valued items does
    minimal.sort(key=lambda d: sum(1 << j for j in d))
    minimal.sort(key=len)
    return minimal


def price_support_lp(
    market: Market, allocation: Allocation, caps: SearchCaps = DEFAULT_CAPS
) -> lp.LPProblem:
    """The shared price-recovery system, where every minimal bundle a buyer
    strictly prefers to its own must cost at least e = 1 + slack."""
    _require_additive(market)
    _check_enum_cap(market, caps)
    return equilibrium.price_support_lp(market, allocation, partial(_minimal_deviating_bundles, market))


def prices_for_allocation(
    market: Market, allocation: Allocation, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[PriceVector]:
    """Prices making the given allocation an equilibrium, or None."""
    _require_additive(market)
    _check_enum_cap(market, caps)
    return _prices_for_allocation(market, allocation)


def _prices_for_allocation(market: Market, allocation: Allocation) -> Optional[PriceVector]:
    return equilibrium.prices_for_allocation(market, allocation, partial(_minimal_deviating_bundles, market))


def allocation_for_prices(
    market: Market, prices: PriceVector, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Allocation]:
    """First allocation, in the shared deterministic assignment order, that
    forms an equilibrium with the given prices, or None."""
    _require_additive(market)
    _check_assignment_cap(market, caps)
    _check_enum_cap(market, caps)
    return equilibrium.allocation_for_prices(market, prices, partial(_better_bundle, market, prices))


class _ValueTally:
    """The placed items' values on one common integer scale, kept in step
    with `equilibrium.search` by `place(j, owner)` and `remove(j, owner)`.

    `cross[i][k]` is buyer i's value for bundle k and `screen()` the envy
    screen.  `place(j, owner)` sets `bound`: -1 once some pair of buyers is
    past its slack for items j+1.. (the swap bound of the module
    docstring), as no completion is supportable, else `_value(j + 1)`, the
    welfare of the placed items plus, for each item not yet placed, the
    largest value any buyer puts on it.  Only pairs with different rows are
    kept, since identical buyers have a swap excess of 0.
    """

    def __init__(self, market: Market):
        n, m = market.n, market.m
        flat, self.scale = integer_row([v for row in market.values for v in row])
        values = [flat[i * m:(i + 1) * m] for i in range(n)]
        self.columns = list(zip(*values))
        self.best = [0] * (m + 1)  # best[j]: sum of the largest values of items j..
        for j in reversed(range(m)):
            self.best[j] = self.best[j + 1] + max(self.columns[j])
        self.cross = [[0] * n for _ in range(n)]
        pairs = [(i, k, 0) for i in range(n) for k in range(i + 1, n) if values[i] != values[k]]
        self.slack = [[]]  # slack[j]: (i, k, slack left for items j..); none at a leaf
        for column in reversed(self.columns):
            pairs = [(i, k, s + abs(column[i] - column[k])) for i, k, s in pairs]
            self.slack.append(pairs)
        self.slack.reverse()
        self.bound = self._value(0)

    def _value(self, j: int) -> int:
        return sum(row[i] for i, row in enumerate(self.cross)) + self.best[j]

    def place(self, j: int, owner: int) -> bool:
        c = self.cross
        for cross, v in zip(c, self.columns[j]):
            cross[owner] += v
        for i, k, slack in self.slack[j + 1]:
            if c[i][k] - c[i][i] + c[k][i] - c[k][k] > slack:
                self.bound = -1
                return True
        self.bound = self._value(j + 1)
        return True

    def remove(self, j: int, owner: int) -> None:
        for cross, v in zip(self.cross, self.columns[j]):
            cross[owner] -= v

    def screen(self) -> bool:
        for i, row in enumerate(self.cross):
            if max(row) != row[i]:
                return False
        return True


class _EnvyTally(_ValueTally):
    """`_ValueTally` with every answer worth 0, so `equilibrium.search`
    ends at its first answer."""

    def _value(self, j: int) -> int:
        return 0


def search_equilibrium(
    market: Market, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Tuple[Allocation, PriceVector]]:
    """First allocation in the deterministic assignment order that admits
    supporting prices, with those prices; None when no equilibrium exists.

    `equilibrium.search` with `_EnvyTally`.  Its cuts are sound, so the
    first price-supportable allocation is never skipped: an envious buyer
    (one valuing another's bundle above its own) always has an affordable
    deviation, since bundles cost exactly 1, so leaves pass the envy screen
    and inner nodes the swap bound.  The tally keeps both in ints, so most
    subtrees are cut without touching the pricing system or any rational
    arithmetic.
    """
    _require_additive(market)
    _check_assignment_cap(market, caps)
    _check_enum_cap(market, caps)
    found = equilibrium.search(market, _EnvyTally(market), partial(_prices_for_allocation, market))
    return None if found is None else found[:2]


def optimal_welfare_equilibrium(
    market: Market, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Tuple[Allocation, PriceVector, object]]:
    """Exact welfare-maximal equilibrium, or None: of the maximal-welfare
    equilibria, the one whose allocation comes first in the assignment
    order, with its prices and welfare.  `equilibrium.search` with
    `_ValueTally`."""
    _require_additive(market)
    _check_assignment_cap(market, caps)
    _check_enum_cap(market, caps)
    return equilibrium.search(market, _ValueTally(market), partial(_prices_for_allocation, market))
