"""Instance generators for the hardness gadgets, plus brute-force deciders
for the four source problems so every gadget's correctness is checkable on
small inputs.

Each generator materializes one reduction as a concrete market (with the
allocation or prices the gadget fixes, where applicable).  The deciders are
deliberately naive exhaustive searches: they are the ground truth the
gadget tests compare against.

Source-problem elements are 1-based as conventionally written; generated
markets use this package's 0-based buyer/item indices (the forced item of
the partition gadget is item 0, ground element e becomes item e-1, and so
on).  The JSON layer shifts everything to 1-based on output.

The instance records read their input once and keep tuples of ints or of
frozensets (elements checked as ints first), so they are immutable and hashable.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Tuple

from .core import (
    ADDITIVE,
    LEONTIEF,
    ONE,
    Allocation,
    Market,
    PriceVector,
    Record,
    SearchCapExceeded,
    _require_ints,
    _set,
    make_market,
    rational,
)

_DECIDER_CAP = 1 << 20


class PartitionInstance(Record):
    """Positive integers to be split into two halves of equal sum."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]):
        values = _require_ints(values)
        if not values or min(values) <= 0:
            raise ValueError("partition instance needs a nonempty list of positive integers")
        _set(self, "values", values)


class SubsetSumInstance(Record):
    """Positive integers and a positive target sum."""

    __slots__ = ("values", "target")

    def __init__(self, values: Iterable[int], target: int):
        values = _require_ints(values)
        _require_ints((target,))
        if not values or min(values) <= 0:
            raise ValueError("subset-sum instance needs a nonempty list of positive integers")
        if target <= 0:
            raise ValueError("subset-sum target must be positive")
        _set(self, "values", values)
        _set(self, "target", target)


class X3CInstance(Record):
    """Universe {1..3n} and a family of 3-element subsets."""

    __slots__ = ("universe_size", "sets")

    def __init__(self, universe_size: int, sets: Iterable[Iterable[int]]):
        sets = tuple(frozenset(_require_ints(s)) for s in sets)  # elements checked before repeats merge
        _require_ints((universe_size,))
        if universe_size < 3 or universe_size % 3:
            raise ValueError("universe size must be a positive multiple of 3")
        if any(len(s) != 3 or min(s) < 1 or max(s) > universe_size for s in sets):
            raise ValueError("every set must contain exactly 3 universe elements")
        _set(self, "universe_size", universe_size)
        _set(self, "sets", sets)


class SetPackingInstance(Record):
    """Finite sets over a positive-integer ground set, and a threshold."""

    __slots__ = ("sets", "threshold")

    def __init__(self, sets: Iterable[Iterable[int]], threshold: int):
        sets = tuple(frozenset(_require_ints(s)) for s in sets)
        if not sets or any(not s for s in sets):
            raise ValueError("set-packing instance needs nonempty sets")
        _require_ints((threshold,))
        if not 1 <= threshold <= len(sets):
            raise ValueError("threshold must be between 1 and the number of sets")
        if any(min(s) <= 0 for s in sets):
            raise ValueError("ground elements must be positive integers")
        _set(self, "sets", sets)
        _set(self, "threshold", threshold)


def partition_to_leontief(inst: PartitionInstance) -> Tuple[Market, PriceVector]:
    """Market and prices for which a market-clearing allocation exists iff
    the values admit an equal-sum split.

    Three buyers over m+1 items: item 0 is demanded only by buyer 0 and
    priced 1, pinning it to buyer 0; buyers 1 and 2 both demand all the
    value items, whose prices are scaled to total exactly 2, so their
    budgets can be exhausted only by an equal split of the values.
    """
    s = inst.values
    m = len(s)
    total = sum(s)
    share = rational(1, m + 1)
    rows = [[ONE] + [0] * m, [0] + [share] * m, [0] + [share] * m]
    market = make_market(rows, LEONTIEF)
    prices = [ONE] + [rational(2 * v, total) for v in s]
    return market, PriceVector(prices)


def setpacking_to_leontief(inst: SetPackingInstance) -> Tuple[Market, int]:
    """Market whose best equilibrium welfare counts the largest number of
    pairwise-disjoint sets; paired with the instance threshold.

    One buyer per set, demanding its set's ground items plus a private
    item, all valued 1: a buyer enjoys utility 1 exactly when served its
    whole demand, and demands can be served together only when the
    underlying sets are disjoint.
    """
    n = len(inst.sets)
    ground = max(max(s) for s in inst.sets)
    m = ground + n
    rows = []
    for i, s in enumerate(inst.sets):
        demanded = {e - 1 for e in s} | {ground + i}
        rows.append([1 if j in demanded else 0 for j in range(m)])
    return make_market(rows, LEONTIEF), inst.threshold


def subsetsum_to_additive_verify(inst: SubsetSumInstance) -> Tuple[Market, Allocation, PriceVector]:
    """Market, allocation and prices that verify as an equilibrium iff no
    subset of the values sums exactly to the target.

    Values above the target can never participate in a hit and are dropped.
    Buyer 0 holds a decoy item worth target-1 and priced 1; each kept value
    w becomes an item priced w/target.  A subset hitting the target is an
    affordable strictly better bundle for buyer 0.  Every other buyer owns
    its only valuable item plus a filler priced to finish its budget.
    """
    k = inst.target
    kept = [w for w in inst.values if w <= k]
    n = len(kept)
    m = 2 * n + 1
    rows = [[k - 1] + kept + [0] * n]
    for i in range(1, n + 1):
        rows.append([1 if j == n + i else 0 for j in range(m)])
    market = make_market(rows, ADDITIVE)
    bundles = [frozenset([0])] + [frozenset([i, n + i]) for i in range(1, n + 1)]
    prices = [ONE] + [rational(w, k) for w in kept] + [ONE - rational(w, k) for w in kept]
    return market, Allocation(tuple(bundles)), PriceVector(prices)


def x3c_to_additive(inst: X3CInstance) -> Market:
    """Market with an equilibrium iff the family contains an exact cover.

    One buyer per set: a third of a unit for each of its own triple's
    elements and a full unit for each bonus item; there is one bonus item
    per set beyond those needed for the cover.  The bonus items are what
    makes the gadget faithful: they are worth 1 to everybody and affordable,
    pinning every equilibrium utility to exactly 1, which forces the
    non-bonus buyers' triples to form an exact cover.

    Two degenerate regimes are resolved before building the gadget.  With
    fewer sets than the cover needs, no cover can exist and the bonus items
    would be ill-defined, so a canonical equilibrium-free market (two buyers
    fighting over one item) is returned.  With exactly as many sets as the
    cover needs there is no bonus item and the pin-to-1 argument breaks
    down (markets built from uncoverable families can still clear at lower
    utilities); solvability in that regime is just "all sets pairwise
    disjoint and covering", which for k triples over 3k elements is "their
    union has 3k elements", so the gadget is emitted when that check passes
    and the equilibrium-free marker otherwise.
    """
    n = inst.universe_size // 3
    k = len(inst.sets)
    if k < n or k == n and len(frozenset().union(*inst.sets)) != inst.universe_size:
        return make_market([[1], [1]], ADDITIVE)
    third = rational(1, 3)
    m = inst.universe_size + (k - n)
    rows = []
    for s in inst.sets:
        elems = {e - 1 for e in s}
        rows.append([third if j in elems else (ONE if j >= inst.universe_size else 0) for j in range(m)])
    return make_market(rows, ADDITIVE)


def partition_to_additive_prices(inst: PartitionInstance) -> Tuple[Market, PriceVector]:
    """Market and prices admitting an equilibrium allocation iff the values
    have no equal-sum split.

    Two buyers over m+2 items.  Buyer 1 affords all the value items exactly,
    so any equilibrium hands it those and buyer 0 the two specials; buyer 0
    then has a profitable affordable swap exactly when a half-sum subset
    exists.  Requires an even total (the construction needs an integer
    half-sum).
    """
    s = inst.values
    total = sum(s)
    if total % 2:
        raise ValueError("partition gadget needs an even total")
    v_half = total // 2
    m = len(s)
    rows = [[*s, 3 * v_half, v_half - 1], [1] * m + [0, 0]]
    market = make_market(rows, ADDITIVE)
    half = rational(1, 2)
    prices = [rational(v, total) for v in s] + [half, half]
    return market, PriceVector(prices)


def subsetsum_to_additive_allocation(inst: SubsetSumInstance) -> Tuple[Market, Allocation]:
    """Market and allocation supportable by prices iff no subset of the
    values sums exactly to the target.

    Two buyers over m+2 items; buyer 0 is allocated the two specials (one
    nearly worth the target, one enormous), buyer 1 all the value items.
    Requires every value at most the target and a total at least the
    target, as the construction presumes.
    """
    w = inst.values
    k = inst.target
    if sum(w) < k:
        raise ValueError("subset-sum gadget needs a total at least the target")
    if any(v > k for v in w):
        raise ValueError("subset-sum gadget needs every value at most the target")
    m = len(w)
    big = 4 * sum(w) ** 2
    rows = [[*w, k - 1, big], [*w, k + 1, 0]]
    market = make_market(rows, ADDITIVE)
    bundles = (frozenset([m, m + 1]), frozenset(range(m)))
    return market, Allocation(bundles)


def _check_decider_cap(count: int) -> None:
    if 1 << count > _DECIDER_CAP:
        raise SearchCapExceeded(f"brute-force decider over {count} elements, 2^{count} subsets",
                                "max_subsets", 1 << count, _DECIDER_CAP)


def decide_partition(inst: PartitionInstance) -> Tuple[bool, Optional[tuple]]:
    """(yes, (half, half)) with the two value-lists as certificate, or (no, None)."""
    s = inst.values
    _check_decider_cap(len(s))
    total = sum(s)
    if total % 2:
        return False, None
    for mask in range(1 << len(s)):
        chosen = [v for t, v in enumerate(s) if mask >> t & 1]
        if sum(chosen) * 2 == total:
            rest = [v for t, v in enumerate(s) if not mask >> t & 1]
            return True, (tuple(chosen), tuple(rest))
    return False, None


def decide_subset_sum(inst: SubsetSumInstance) -> Tuple[bool, Optional[tuple]]:
    """(yes, chosen values) or (no, None)."""
    s = inst.values
    _check_decider_cap(len(s))
    for mask in range(1, 1 << len(s)):
        chosen = [v for t, v in enumerate(s) if mask >> t & 1]
        if sum(chosen) == inst.target:
            return True, tuple(chosen)
    return False, None


def _disjoint_combination(sets: tuple, size: int) -> Tuple[bool, Optional[tuple]]:
    """(yes, the first pairwise-disjoint `size`-combination of `sets` in
    `itertools.combinations` order) or (no, None)."""
    for combo in itertools.combinations(sets, size):
        union = set()
        for s in combo:
            if union & s:
                break
            union |= s
        else:
            return True, combo
    return False, None


def decide_x3c(inst: X3CInstance) -> Tuple[bool, Optional[tuple]]:
    """(yes, covering sets) or (no, None).  Every set holds 3 of the 3n
    universe elements, so n pairwise-disjoint sets are a cover."""
    _check_decider_cap(len(inst.sets))
    return _disjoint_combination(inst.sets, inst.universe_size // 3)


def decide_setpacking(inst: SetPackingInstance) -> Tuple[bool, Optional[tuple]]:
    """(yes, pairwise-disjoint sets meeting the threshold) or (no, None)."""
    _check_decider_cap(len(inst.sets))
    return _disjoint_combination(inst.sets, inst.threshold)
