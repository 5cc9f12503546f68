"""The equilibrium skeleton shared by both valuation classes.

Both classes are held to the same conditions: a feasible allocation, every
unsold item free, every bundle costing exactly the budget 1, and no buyer
able to afford a bundle it strictly prefers.  They differ only in which
bundles a buyer would deviate to, so `leontief` and `additive` supply a
best-response test and per-buyer deviators, and for the one assignment
search, `search`, a tally of the placed items and an acceptance test.

No assignment search tries leaving an item unsold.  An unsold item is
priced 0, so giving it to buyer 0 keeps every price, every budget and every
other bundle, and does not lower buyer 0's utility (utility is monotone in
both classes) nor the welfare.  The result is again an equilibrium with the
same prices, of at least the same welfare, and it comes earlier in the
assignment order, where an item's owners are tried in buyer order.  So an
allocation that leaves an item unsold is never the first answer, nor the
first of the maximal-welfare answers.
"""

from __future__ import annotations

import sys
from typing import Callable, List, Optional, Tuple

from . import lp
from .core import (
    ONE,
    SUBOPTIMAL_BUNDLE,
    ZERO,
    Allocation,
    EquilibriumReport,
    InfeasibleAllocationError,
    Market,
    PriceVector,
    SearchCapExceeded,
    SearchCaps,
    Violation,
    _check_prices,
    check_budgets,
    check_clearing,
    check_feasible,
    integer_row,
    rational,
)

#: deviators(buyer, bundle): the bundles the buyer strictly prefers to
#: `bundle`, each as an int mask over item indices (bit j set for item j).
Deviators = Callable[[int, frozenset], List[int]]


def verify_equilibrium(
    market: Market, allocation: Allocation, prices: PriceVector, better_bundle: Callable
) -> EquilibriumReport:
    """Check feasibility, then clearing, then budgets, then each buyer by
    index: `better_bundle(i, bundle)` is an affordable bundle buyer i
    strictly prefers to `bundle`, its own (the violation's witness), or
    None.  A later check runs only once the earlier ones pass."""
    _check_prices(market, prices)
    found = (check_feasible(market, allocation) or check_clearing(market, allocation, prices)
             or check_budgets(market, allocation, prices))
    if found is not None:
        return EquilibriumReport(False, found)
    for i in range(market.n):
        witness = better_bundle(i, allocation.bundles[i])
        if witness is not None:
            return EquilibriumReport(False, Violation(SUBOPTIMAL_BUNDLE, buyer=i, witness=witness))
    return EquilibriumReport(True)


def _support_system(masks: List[int], listed: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """The price-recovery LP of a feasible allocation, given by its
    nonempty bundles as item masks, with `listed[k]` the deviator masks of
    bundle k's buyer, as dense int rows; and the items its price variables
    stand for.

    The allocation is price-supportable iff there are nonnegative prices
    with every unsold item at 0, every bundle costing 1 and every deviator
    costing more than 1.  With e = 1 + eps, one more than the strictness
    slack eps, that is iff "maximize e subject to those prices, p(D) >= e
    for every deviator D, and e <= 2" has an optimum above 1.  Its equality
    rows are presolved away by substitution (Andersen & Andersen, Math.
    Prog. 1995):

    - the unsold prices are 0 and are dropped;
    - each bundle B_k's highest item, its anchor a_k, is priced
      `1 - p(R_k)` with R_k = B_k - a_k, so its sign becomes the row
      `p(R_k) <= 1` (none when R_k is empty);
    - a deviator row `e - p(D) <= 0` becomes
      `e - p(D & free) + sum of p(R_k) over the anchors in D <= #anchors
      in D`, where each item of some R_k that is also in D cancels.

    The free items, the sold items that are no anchor, are variables 0..
    in item order, and e comes last.  Every row is `<=` with a right-hand
    side of 0 or more, so the origin is feasible.  Rows come bundle by
    bundle, its sign row and then its deviators, with the cap `e <= 2`
    last.  Each is a list in the layout of `lp._solve_at_origin`: its
    entry per free item, then e's, then the right-hand side, made by one
    comprehension over the free items.  Free item j of the bundle anchored
    at a has the entry `[a in D] - [j in D]` in deviator D's row.
    """
    tops = [mask.bit_length() - 1 for mask in masks]
    anchors = sum([1 << a for a in tops])
    pairs = sorted([(j, a) for mask, a in zip(masks, tops) for j in range(a) if mask >> j & 1])
    free = [j for j, _ in pairs]
    rows = []
    for mask, deviators in zip(masks, listed):
        if mask & (mask - 1):  # R_k is not empty
            rows.append([mask >> j & 1 for j in free] + [0, 1])
        rows += [[(d >> a & 1) - (d >> j & 1) for j, a in pairs] + [1, (d & anchors).bit_count()]
                 for d in deviators]
    rows.append([0] * len(free) + [1, 2])
    return rows, free


def _bundle_masks(allocation: Allocation) -> List[int]:
    """Each bundle as an int mask over item indices."""
    return [sum([1 << j for j in bundle]) for bundle in allocation.bundles]


def price_support_lp(market: Market, allocation: Allocation, deviators: Deviators) -> lp.LPProblem:
    """The price-recovery system `_support_system` builds for a fixed
    feasible allocation with no empty bundle.  Its variables are the prices
    of the free items, in item order, then e; the allocation is
    price-supportable exactly when the maximal e exceeds 1.

    Raises InfeasibleAllocationError (a ValueError) for an infeasible
    allocation, and ValueError for an empty bundle, whose budget no prices
    can exhaust.
    """
    if check_feasible(market, allocation) is not None:
        raise InfeasibleAllocationError("allocation is not feasible")
    for i, bundle in enumerate(allocation.bundles):
        if not bundle:
            raise ValueError(f"buyer {i} has an empty bundle; no prices can exhaust its budget")
    listed = [deviators(i, bundle) for i, bundle in enumerate(allocation.bundles)]
    rows, free = _support_system(_bundle_masks(allocation), listed)
    cons = [lp.LinearConstraint(tuple([(v, c) for v, c in enumerate(row[:-1]) if c]), lp.LE, row[-1])
            for row in rows]
    return lp.lp_problem(len(free) + 1, cons, {len(free): 1})


def prices_for_allocation(market: Market, allocation: Allocation, deviators: Deviators) -> Optional[PriceVector]:
    """Prices making the given allocation an equilibrium, or None.

    Feasibility is checked once and each buyer's deviators are listed
    once, and `_support_system` builds the LP from the bundle masks and
    those lists.  A deviator inside some bundle plus the unsold items costs
    at most 1 under the system's own constraints, so then the strict
    system is unsatisfiable without an LP.  On masks, deviator d lies
    inside cover c iff `not d & ~c`.  The rows enter the simplex at the
    slack basis through `lp._solve_at_origin`, and the allocation is
    supported iff the optimal e, an int over the optimum's denominator,
    exceeds that denominator.  The optimum prices the free items; each
    anchor gets 1 minus the rest of its bundle, and each unsold item `ZERO`.
    """
    if check_feasible(market, allocation) is not None or not all(allocation.bundles):
        return None
    masks = _bundle_masks(allocation)
    unsold = (1 << market.m) - 1 - sum(masks)  # the bundles are disjoint
    outside = [~(mask | unsold) for mask in masks]
    listed = []
    for i, bundle in enumerate(allocation.bundles):
        listed.append(deviators(i, bundle))
        if any(not deviator & beyond for deviator in listed[i] for beyond in outside):
            return None
    rows, free = _support_system(masks, listed)
    e = len(free)
    scaled, den = lp._solve_at_origin(rows, [0] * e + [1])  # the cap bounds e
    if scaled[e] <= den:
        return None
    prices = [ZERO] * market.m
    for j, x in zip(free, scaled):
        if x:
            prices[j] = rational(x, den)
    for bundle in allocation.bundles:
        anchor = max(bundle)
        prices[anchor] = ONE - sum([prices[j] for j in bundle if j != anchor])
    return PriceVector(prices)


#: Stack frames kept free for the search's caller and for pricing at a leaf.
_STACK_RESERVE = 100


def _check_assignment_cap(market: Market, caps: SearchCaps) -> None:
    """Refuse a search past `caps`, or deeper than the interpreter's
    recursion limit lets `search`'s walk, one frame per item, go."""
    search = f"assignment search over {market.n} buyers and {market.m} items"
    if market.m > caps.max_items:
        raise SearchCapExceeded(f"{search}, m items", "max_items", market.m, caps.max_items)
    depth = sys.getrecursionlimit() - _STACK_RESERVE
    if market.m > depth:
        raise SearchCapExceeded(f"{search}, one stack frame per item", "recursion depth", market.m, depth)
    states = market.n ** market.m
    if states > caps.max_states:
        raise SearchCapExceeded(f"{search}, n^m states", "max_states", states, caps.max_states)


def symmetry_classes(rows, tags=None) -> Tuple[List[int], List[int]]:
    """Each buyer's previous identical buyer and each item's previous
    identical item, -1 where there is none, in one pass over the values.

    Buyers are identical when their value rows are equal; items when their
    value columns are equal and, when `tags` is given, so are their tags
    (the prices of a given-prices search).  Swapping identical buyers, or
    identical items, maps equilibria to equilibria and keeps every bundle's
    value and price.  So the set of allocations an assignment search looks
    for is closed under these swaps, and the first of them in the
    assignment order is the lex-least of its orbit (Crawford, Ginsberg, Luks
    & Roy, KR 1996).  Such an allocation obeys the two lex-leader rules the
    searches cut by, so the cuts never change a result:

    - buyer k may receive an item only once its previous identical buyer
      already holds one;
    - item j's owner is at or after its previous identical item's owner.
    """
    # (numerator, denominator) pairs hash and compare in C, rationals do not
    rows = [tuple([(v.numerator, v.denominator) for v in row]) for row in rows]
    last = {}
    prev_buyer = []
    for k, row in enumerate(rows):
        prev_buyer.append(last.get(row, -1))
        last[row] = k
    last = {}
    prev_item = []
    for j, column in enumerate(zip(*rows) if tags is None else zip(tags, *rows)):
        prev_item.append(last.get(column, -1))
        last[column] = j
    return prev_buyer, prev_item


class _SpendTally:
    """The tally of a given-prices search: each buyer's spend in ints over
    the prices' common denominator D, so "spend <= 1" is "spend <= D".
    Every answer is worth 0.  A leaf where every spend is exactly D is
    feasible, clears and exhausts every budget by construction."""

    bound = 0
    scale = 1

    def __init__(self, n: int, prices: List[int], den: int):
        self.prices, self.den = prices, den
        self.spend = [0] * n

    def place(self, j: int, owner: int) -> bool:
        spend = self.spend[owner] + self.prices[j]
        if spend > self.den:
            return False
        self.spend[owner] = spend
        return True

    def remove(self, j: int, owner: int) -> None:
        self.spend[owner] -= self.prices[j]

    def screen(self) -> bool:
        return all(s == self.den for s in self.spend)


def allocation_for_prices(market: Market, prices: PriceVector, better_bundle: Callable) -> Optional[Allocation]:
    """First allocation (in the assignment order of `search`) that forms an
    equilibrium with the given prices, or None: `search` with
    `_SpendTally`, where identical items must also share a price, and a
    leaf is an answer when `better_bundle(i, bundle)`, the verifier's
    per-buyer test, finds no buyer a better bundle."""
    _check_prices(market, prices)
    p, den = integer_row(prices.prices)

    def accept(candidate: Allocation) -> Optional[PriceVector]:
        if any(better_bundle(i, b) is not None for i, b in enumerate(candidate.bundles)):
            return None
        return prices

    found = search(market, _SpendTally(market.n, p, den), accept, p)
    return None if found is None else found[0]


def search(market: Market, tally, accept: Callable, tags=None) -> Optional[Tuple[Allocation, PriceVector, object]]:
    """The one assignment search: of the accepted allocations of maximal
    value, the first in the assignment order, with its prices and value;
    None when no allocation is accepted.

    Assignments are enumerated lexicographically: items in index order,
    each tried with buyers in index order; no item stays unsold (see the
    module docstring).  One branch-and-bound pass (Land & Doig, 1960).  The
    class supplies `tally`, kept in step with the assignment:

    - `tally.place(j, owner)` places item j, or returns False and leaves
      the tally unchanged when no acceptable allocation gives j to `owner`;
      `tally.remove(j, owner)` undoes an accepted place;
    - `tally.bound`, read at the root and right after each accepted place,
      is an int upper bound, over `tally.scale`, on the value of every
      acceptable completion, -1 when there is none, and exact at a leaf
      that passes `tally.screen()`.

    A subtree is cut once its bound is at most the best value found, so a
    leaf reaches `accept(allocation) -> prices | None` only when it has no
    empty bundle, passes the screen and strictly beats the best so far.
    That is the brute-force oracle's "skip unless better" rule, so ties go
    to the first allocation in the order.  The walk ends once the best
    value reaches the root's bound, as nothing can strictly beat it; so a
    search whose answers are all worth 0 (bound 0) ends at its first
    answer.  The two lex-leader rules of `symmetry_classes`, with `tags`,
    cut the rest.
    """
    n, m = market.n, market.m
    prev_buyer, prev_item = symmetry_classes(market.values, tags)
    owner = [0] * m
    held = [0] * n
    place, remove, top = tally.place, tally.remove, tally.bound
    best = [-1, None]  # value over tally.scale, (allocation, prices)

    def assign(j: int) -> bool:
        """Walk the completions of items 0..j-1; True once the best reaches `top`."""
        if j == m:
            if 0 not in held and tally.screen():
                candidate = Allocation(tuple(
                    frozenset(k for k in range(m) if owner[k] == i) for i in range(n)
                ))
                prices = accept(candidate)
                if prices is not None:
                    best[:] = tally.bound, (candidate, prices)
            return best[0] >= top
        q = prev_item[j]
        for i in range(owner[q] if q >= 0 else 0, n):
            k = prev_buyer[i]
            if (held[i] or k < 0 or held[k]) and place(j, i):
                if tally.bound > best[0]:
                    owner[j] = i
                    held[i] += 1
                    if assign(j + 1):
                        return True
                    held[i] -= 1
                remove(j, i)
        return False

    if top >= 0:
        assign(0)
    # `assign` reaches itself through its closure; emptying the cell frees
    # the walk's state on return instead of leaving a cycle to the collector
    del assign
    if best[1] is None:
        return None
    return (*best[1], rational(best[0], tally.scale))
