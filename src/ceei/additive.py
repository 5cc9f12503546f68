"""Perfect-substitutes (additive) market operations.

Buyer optimality here is a knapsack question: verification and both
one-side searches walk a buyer's bundles depth first, pruned, on a stack
with no table of subsets; every operation is exact and guarded by hard
caps.  To the skeleton in `ceei.equilibrium` this module adds the knapsack
best response (its maximizer is the violation witness), the
inclusion-minimal strictly better bundles as deviators, listed in O(k) work
per deviator for a buyer's k valued items, and the tallies
`equilibrium.search` runs on, `_ValueTally` and `_EnvyTally`.  The verifier
and the searches call the best response and the price recovery through
their public entry points, so each call repeats their constant-time checks.

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
bound eagerly, as each item is placed.  A complete assignment has no slack
left, so there the bound cuts every positive swap excess, which the envy
screen would reject anyway.

The tallies pack their int fields into one Python int (SIMD within a
register, after Fisher & Dietz, LCPC 1998), so each node of a search costs
one add and one mask test however many buyers there are.  Every field has
the same width w and holds `value + 2^(w-1) - 1`, so its top bit is set
iff its value is positive.  With T the market's total scaled value, each
field's value stays in [-T, T]: an envy field is at most one buyer's
whole row in size, and a swap field starts at minus the pair's slack S and
each item adds between 0 and 2 |v_i(j) - v_k(j)| to it, so it stays in
[-S, S], and S <= T.  So w = bitlength(T) + 1 keeps every biased field in
[0, 2^w), and adding a packed increment, a sum of per-field changes
shifted into place, changes each field by its own change: no carry or
borrow crosses into the next field.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from . import equilibrium
from .core import (
    ADDITIVE,
    DEFAULT_CAPS,
    Allocation,
    EquilibriumReport,
    Market,
    PriceVector,
    SearchCapExceeded,
    SearchCaps,
    _check_buyer,
    _check_prices,
    bundle_utility,
    integer_row,
    rational,
)
from .equilibrium import _check_assignment_cap

if TYPE_CHECKING:
    from . import lp


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
    change nothing but the price), and among maximizers the least mask over
    ascending item indices is returned.  Knapsack branch and bound (Kolesar
    1967) on scaled ints, budget test cost <= D: a stack entry leaves
    `pos[:t]` undecided and is dropped when `reach[t]`, their value, cannot
    lift it past the best; "take pos[t-1]" is pushed before "leave it", so
    masks come in increasing order and the first strict maximizer found is
    the least.  The value is made rational once, on return.
    A buyer that is not an int is a TypeError, one out of range a ValueError.
    """
    _require_additive(market)
    _check_buyer(market, buyer)
    _check_enum_cap(market, caps)
    _check_prices(market, prices)
    row, scale = integer_row(market.values[buyer])
    costs, den = integer_row(prices.prices)
    pos = [j for j, v in enumerate(row) if v > 0]
    reach = list(accumulate((row[j] for j in pos), initial=0))
    best_mask, best, stack = 0, 0, [(len(pos), 0, 0, 0)]
    while stack:
        t, value, cost, mask = stack.pop()
        if value + reach[t] <= best:
            continue
        if t == 0:
            best_mask, best = mask, value
            continue
        j = pos[t - 1]
        if cost + costs[j] <= den:
            stack.append((t - 1, value + row[j], cost + costs[j], mask | 1 << j))
        stack.append((t - 1, value, cost, mask))
    bundle = frozenset(j for j in pos if best_mask >> j & 1)
    return bundle, rational(best, scale)


def verify_equilibrium(
    market: Market, allocation: Allocation, prices: PriceVector, caps: SearchCaps = DEFAULT_CAPS
) -> EquilibriumReport:
    """Decide whether (allocation, prices) is a competitive equilibrium: the
    shared checks, where each buyer's assigned utility is compared against
    its exactly computed best affordable value; a losing comparison is
    reported with the better bundle as the witness, so the verdict can be
    rechecked independently."""
    _require_additive(market)
    _check_enum_cap(market, caps)
    best = partial(best_affordable_bundle, market, prices=prices, caps=caps)
    return equilibrium.verify_equilibrium(market, allocation, prices, partial(_better_bundle, market, best))


def _better_bundle(market: Market, best_response: Callable, buyer: int, bundle: frozenset) -> Optional[frozenset]:
    """The buyer's best affordable bundle, `best_response(buyer)`, when it
    is worth more than `bundle`."""
    best, value = best_response(buyer)
    return best if value > bundle_utility(market, buyer, bundle) else None


def _minimal_deviating_bundles(market: Market, buyer: int, bundle: frozenset) -> List[int]:
    """Inclusion-minimal bundles worth strictly more than `bundle`, as int
    masks over item indices, ordered by size, then by mask.

    Supersets are dropped: prices are nonnegative, so once a bundle is
    priced above budget every superset is too.  Zero-value items never
    appear in a minimal deviator.  Values are summed as the buyer's scaled
    ints, and so is `limit`, the bundle's own value on that scale.

    A depth-first walk over the k positively valued `items`, in descending
    value order, that enters only branches holding a deviator (after Read &
    Tarjan, Networks 1975).  Its explicit stack holds bundles worth at most
    the limit, each extended only by items after its last, and `reach[u]`
    is the value of `items[u:]`.  One rule: a bundle worth `value` stops at
    the first u with `value + reach[u] <= limit`, since no later item lifts
    it past the limit.  Before that, adding `items[u]` either passes the
    limit, and the result is minimal (its last item is its least-valued,
    and without it the bundle is worth at most the limit), or it does not,
    and the result is pushed.  So every bundle pushed leads to a deviator,
    the work is O(k) per deviator, and the memory is the stack plus the
    output.
    """
    row, _ = integer_row(market.values[buyer])
    limit = sum([row[j] for j in bundle])
    items = sorted((j for j, v in enumerate(row) if v > 0), key=row.__getitem__, reverse=True)
    reach = [0] * (len(items) + 1)
    for u in reversed(range(len(items))):
        reach[u] = reach[u + 1] + row[items[u]]
    minimal, stack = [], [(0, 0, 0)]
    while stack:
        t, value, mask = stack.pop()
        for u in range(t, len(items)):
            if value + reach[u] <= limit:
                break
            total, extended = value + row[items[u]], mask | 1 << items[u]
            if total > limit:
                minimal.append(extended)
            else:
                stack.append((u + 1, total, extended))
    minimal.sort()
    minimal.sort(key=int.bit_count)  # stable: by size, then by mask
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
    return equilibrium.prices_for_allocation(market, allocation, partial(_minimal_deviating_bundles, market))


def allocation_for_prices(
    market: Market, prices: PriceVector, caps: SearchCaps = DEFAULT_CAPS
) -> Optional[Allocation]:
    """First allocation, in the shared deterministic assignment order, that
    forms an equilibrium with the given prices, or None.  A buyer's best
    response depends only on the prices, so each is enumerated at most
    once per call, however many leaves the search tests."""
    _require_additive(market)
    _check_assignment_cap(market, caps)
    _check_enum_cap(market, caps)
    best = cache(partial(best_affordable_bundle, market, prices=prices, caps=caps))
    return equilibrium.allocation_for_prices(market, prices, partial(_better_bundle, market, best))


class _ValueTally:
    """The placed items' values on one common integer scale, kept in step
    with `equilibrium.search` by `place(j, owner)` and `remove(j, owner)`,
    each one add of a precomputed increment (see the module docstring).

    `state` packs the fields of width `w`, swap fields first: for each pair
    i < k with different rows, E_ik minus the slack left for the items not
    yet placed, which starts at minus the pair's whole slack; then for each
    ordered pair i != k the envy v_i(B_k) - v_i(B_i).  `inc[j][owner]` is
    the packed change of every field when item j goes to `owner`.  A swap
    field grows by |v_i(j) - v_k(j)| plus E_ik's change, so it never falls.
    `screen()` is the envy screen: no envy field is positive.
    `place(j, owner)` sets `bound`: -1 once some swap field is positive,
    as no completion is supportable, else `welfare + best[j + 1]`, the
    welfare of the placed items plus, for each item not yet placed, the
    largest value any buyer puts on it.  Only pairs with different rows
    get a swap field, since identical buyers have a swap excess of 0.
    """

    def __init__(self, market: Market):
        n, m = market.n, market.m
        flat, self.scale = integer_row([v for row in market.values for v in row])
        values = [flat[i * m:(i + 1) * m] for i in range(n)]
        self.columns = list(zip(*values))
        self.best = [0] * (m + 1)  # best[j]: sum of the largest values of items j..
        for j in reversed(range(m)):
            self.best[j] = self.best[j + 1] + max(self.columns[j])
        w = sum(flat).bit_length() + 1  # every field's value lies in [-total, total]
        swaps = [(i, k) for i in range(n) for k in range(i + 1, n) if values[i] != values[k]]
        envies = [(i, k) for i in range(n) for k in range(n) if i != k]

        def pack(fields):
            return sum(v << t * w for t, v in enumerate(fields))

        def change(j, o):  # every field's change when item j goes to buyer o
            v = self.columns[j]
            swap = [abs(v[i] - v[k]) + (v[k] - v[i]) * ((o == i) - (o == k)) for i, k in swaps]
            return pack(swap + [v[i] * ((o == k) - (o == i)) for i, k in envies])

        bias = (1 << w - 1) - 1  # a field's top bit is set iff its value is positive
        slack = [sum(abs(a - b) for a, b in zip(values[i], values[k])) for i, k in swaps]
        self.state = pack([bias - s for s in slack] + [bias] * len(envies))
        self.inc = [[change(j, o) for o in range(n)] for j in range(m)]
        tops = [1 << w - 1] * (len(swaps) + len(envies))
        self.swap_tops = pack(tops[:len(swaps)])
        self.envy_tops = pack(tops) - self.swap_tops
        self.welfare = 0
        self.bound = self.best[0]

    def place(self, j: int, owner: int) -> bool:
        self.state = state = self.state + self.inc[j][owner]
        self.welfare += self.columns[j][owner]
        self.bound = -1 if state & self.swap_tops else self.welfare + self.best[j + 1]
        return True

    def remove(self, j: int, owner: int) -> None:
        self.state -= self.inc[j][owner]
        self.welfare -= self.columns[j][owner]

    def screen(self) -> bool:
        return not self.state & self.envy_tops


class _EnvyTally(_ValueTally):
    """`_ValueTally` with every answer worth 0, so `equilibrium.search`
    ends at its first answer; it keeps no welfare."""

    def __init__(self, market: Market):
        super().__init__(market)
        self.bound = 0

    def place(self, j: int, owner: int) -> bool:
        self.state = state = self.state + self.inc[j][owner]
        self.bound = -1 if state & self.swap_tops else 0
        return True

    def remove(self, j: int, owner: int) -> None:
        self.state -= self.inc[j][owner]


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
    found = equilibrium.search(market, _EnvyTally(market), partial(prices_for_allocation, market, caps=caps))
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
    return equilibrium.search(market, _ValueTally(market), partial(prices_for_allocation, market, caps=caps))
