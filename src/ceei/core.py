"""Domain types, exact rational arithmetic, and the shared equilibrium checks.

Every quantity in this package is an exact rational; there is no floating
point and no tolerance parameter anywhere.  Budgets are exactly 1 per buyer,
so the equilibrium conditions are exact equalities and are decided by exact
comparison.  A market stores each integral value as a Python int and every
other value as a reduced `fractions.Fraction`, so the solvers' and the
oracle's comparisons on whole values skip the Fraction slow path.  An int
and the Fraction of equal value compare and hash equal, so the stored type
changes no result.  Utilities, welfare, prices and LP points are returned
as Fractions.

The domain types are `Record`s: slotted, immutable after construction,
compared and hashed by value, like frozen dataclasses (which this package
does not import, to keep the command line's start-up short).  A `Market`,
`PriceVector` or `SearchCaps` is valid once built.  All operations are
pure functions, so values can be shared freely across threads.

Buyer and item indices are 0-based throughout the library; the JSON layer
(`ceei.io`) converts to the 1-based convention used externally.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

_rational_backend = Fraction  # the backend name perfbench records

#: Exact rational scalar: reduced numerator/denominator, denominator > 0,
#: arbitrary precision.
RationalLike = Union[int, str, Fraction]

LEONTIEF = "leontief"
ADDITIVE = "additive"

_GRAMMAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational(value: RationalLike, den: int = 1):
    """Coerce an int, a Fraction or a rational string to the exact rational
    type; with an int `den`, the result is `value / den`, made in one step.

    The one string grammar is `-?[0-9]+(/[0-9]+)?` with a positive
    denominator, surrounding whitespace allowed; any other string ("1.5",
    "1e3", "+1", "1/0") is a ValueError.  Any other type, a float, a bool or
    an int subclass included, is a TypeError: a float is already rounded,
    and a bool is not a quantity.
    """
    if type(value) is str:
        match = _GRAMMAR.fullmatch(value.strip())
        if match is None:
            raise ValueError(f"not an exact rational: {value!r}")
        num, q = match.groups()
        den *= int(q or 1)
        if den == 0:
            raise ValueError(f"zero denominator in {value!r}")
        value = int(num)
    elif type(value) is not int and type(value) is not Fraction:
        raise TypeError(f"not an exact rational: {value!r}")
    return Fraction(value) if den == 1 else Fraction(value, den)


def integer(text: str) -> int:
    """An int in `rational`'s grammar with no `/q` part; "1_0", "+2" or "٣",
    which `int()` reads, is a ValueError."""
    match = _GRAMMAR.fullmatch(text.strip())
    if match is None or match[2] is not None:
        raise ValueError(f"not an integer: {text!r}")
    return int(match[1])


ZERO = rational(0)
ONE = rational(1)


def _exact(x) -> None:
    """TypeError unless x is an int or a Fraction, the two types an exact
    rational is stored as: a float, a bool or a "p/q" string is refused."""
    if type(x) is not int and type(x) is not Fraction:
        raise TypeError(f"not an exact rational (int or Fraction): {x!r}")


def _require_ints(values: Iterable) -> tuple:
    """`values` as a tuple, read once; TypeError unless every value is an
    int, so floats, bools and int subclasses are refused, as `rational`
    refuses them."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise TypeError(f"not an integer: {v!r}")
    return values


def integer_row(values):
    """Scale rationals to integers by the LCM of their denominators.

    Returns (integers, scale), with `values[j] == integers[j] / scale`.
    Comparisons among the values, and between their sums, are unchanged by
    the common positive scale, so exact searches can run on Python ints and
    convert back only what they return.  Reads `.numerator` and
    `.denominator`, so ints and `fractions.Fraction` both work.
    """
    scale = 1
    for v in values:
        scale = lcm(scale, v.denominator)
    return [v.numerator * (scale // v.denominator) for v in values], scale


class InvalidMarketError(ValueError):
    """A market violates a structural invariant."""


class InfeasibleAllocationError(ValueError):
    """An allocation reuses an item or references one out of range."""


class SearchCapExceeded(RuntimeError):
    """An exhaustive search would exceed the configured resource cap.

    Carries the cap's name, the search's estimated size and the cap value,
    and the message prints all three.
    """

    def __init__(self, search: str, cap: str, size: int, limit: int):
        super().__init__(f"{search}: {size} exceeds the cap {cap} = {limit}")
        self.cap, self.size, self.limit = cap, size, limit


class Record:
    """Base of the package's immutable records.

    A subclass names its fields, in order, in `__slots__` and stores each
    one with `_set` in its own `__init__`, whose signature gives positional
    and keyword construction, defaults, and the TypeError for an unknown or
    missing field.  Records compare and hash by exact type and field values,
    print as `Name(field=value, ...)`, refuse attribute assignment and
    deletion, and pickle and deep-copy by calling their class again with
    their field values.  This is the behaviour of a frozen dataclass without
    importing `dataclasses`, which pulls in `inspect` and `ast`.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


#: Stores a field of a record in its `__init__`, past the record's refusal.
_set = object.__setattr__


class SearchCaps(Record):
    """Hard limits for the exhaustive searches.

    Exceeding a cap raises :class:`SearchCapExceeded`; searches are never
    silently truncated.  `max_items` bounds the item count of assignment
    searches, `max_states` the assignment space (n**m for the searches,
    which never leave an item unsold, and (n+1)**m for the oracle, which
    does, times n * 2**m bundles in its additive price systems), and
    `max_enum_items` the item count of per-buyer bundle enumeration.  Each
    cap is an int; a float, a bool or a string is a TypeError.
    """

    __slots__ = ("max_items", "max_states", "max_enum_items")

    def __init__(self, max_items: int = 12, max_states: int = 10_000_000, max_enum_items: int = 22):
        _require_ints((max_items, max_states, max_enum_items))
        _set(self, "max_items", max_items)
        _set(self, "max_states", max_states)
        _set(self, "max_enum_items", max_enum_items)


DEFAULT_CAPS = SearchCaps()


class Market(Record):
    """A market of `n` buyers and `m` indivisible items.

    `values[i][j]` is buyer i's value for item j (exact rational, >= 0).
    `market_class` selects the utility model: LEONTIEF (perfect complements)
    or ADDITIVE (perfect substitutes).  `make_market` stores a value with
    denominator 1 as an int and any other as a reduced Fraction; a market
    built directly with Fraction values compares and hashes equal to it.
    The rows are kept as tuples, so a later change to the caller's lists
    changes nothing.  InvalidMarketError for an unknown class, zero buyers
    or items, a row count other than `n` or a row length other than `m`,
    a negative value, or a perfect-complements buyer with an all-zero row
    (it demands nothing, so its utility is undefined); TypeError for a
    count that is not an int or a value that is not an int or a Fraction.
    """

    __slots__ = ("n", "m", "values", "market_class")

    def __init__(self, n: int, m: int, values: Iterable, market_class: str):
        values = tuple(map(tuple, values))
        if market_class not in (LEONTIEF, ADDITIVE):
            raise InvalidMarketError(f"unknown market class {market_class!r}")
        _require_ints((n, m))
        if n < 1:
            raise InvalidMarketError("market needs at least one buyer")
        if m < 1:
            raise InvalidMarketError("market needs at least one item")
        if len(values) != n:
            raise InvalidMarketError("value matrix has wrong number of rows")
        for i, row in enumerate(values):
            if len(row) != m:
                raise InvalidMarketError(f"value row {i} has wrong length")
            for j, v in enumerate(row):
                _exact(v)
                if v < 0:
                    raise InvalidMarketError(f"negative value at buyer {i}, item {j}")
            if market_class == LEONTIEF and not any(row):
                raise InvalidMarketError(f"buyer {i} has an empty demand set")
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "values", values)
        _set(self, "market_class", market_class)


class Allocation(Record):
    """Per-buyer item bundles, kept as a tuple read once from any iterable.
    Feasibility (disjointness, index range) is a checked property, not a
    construction invariant, so that verifiers can report infeasible inputs
    instead of refusing to represent them."""

    __slots__ = ("bundles",)

    def __init__(self, bundles: Iterable):
        _set(self, "bundles", tuple(bundles))


class PriceVector(Record):
    """Nonnegative exact price per item, each an int or a Fraction, kept as
    a tuple read once from any iterable."""

    __slots__ = ("prices",)

    def __init__(self, prices: Iterable):
        prices = tuple(prices)
        for p in prices:
            _exact(p)
            if p < 0:
                raise ValueError("prices must be nonnegative")
        _set(self, "prices", prices)


# Violation kinds, in the order the shared verifier checks them.
INFEASIBLE_ALLOCATION = "infeasible-allocation"
ITEM_UNSOLD_POSITIVE_PRICE = "item-unsold-positive-price"
BUDGET_NOT_EXHAUSTED = "budget-not-exhausted"
SUBOPTIMAL_BUNDLE = "suboptimal-bundle"


class Violation(Record):
    __slots__ = ("kind", "buyer", "item", "witness")

    def __init__(self, kind: str, buyer: Optional[int] = None, item: Optional[int] = None,
                 witness: Optional[frozenset] = None):
        _set(self, "kind", kind)
        _set(self, "buyer", buyer)
        _set(self, "item", item)
        _set(self, "witness", witness)


class EquilibriumReport(Record):
    """Verdict of an equilibrium check: pass, or exactly one violation.

    Verifiers report the first violation found in a fixed order —
    feasibility, clearing, budgets, then per-buyer optimality by buyer
    index — so reports are reproducible.
    """

    __slots__ = ("equilibrium", "violation")

    def __init__(self, equilibrium: bool, violation: Optional[Violation] = None):
        _set(self, "equilibrium", equilibrium)
        _set(self, "violation", violation)


def _stored(value: RationalLike):
    """A market value in its stored form: an int as it is, any other exact
    rational reduced, as its numerator when its denominator is 1."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = rational(value)
    return value.numerator if value.denominator == 1 else value


def make_market(values: Sequence[Sequence[RationalLike]], market_class: str) -> Market:
    """The market of a rectangular value matrix, each value stored as an
    int when integral and as a Fraction otherwise."""
    rows = tuple(tuple(_stored(v) for v in row) for row in values)
    return Market(len(rows), len(rows[0]) if rows else 0, rows, market_class)


def make_allocation(bundles: Iterable[Iterable[int]]) -> Allocation:
    """An allocation of the given bundles; TypeError for an item that is not
    an int, checked before the bundle is frozen, since a frozenset would
    merge a float or a bool into an equal int and the order of the items
    would decide which one is kept."""
    return Allocation(frozenset(_require_ints(b)) for b in bundles)


def make_prices(prices: Iterable[RationalLike]) -> PriceVector:
    return PriceVector(rational(p) for p in prices)


def _check_buyer(market: Market, buyer: int) -> None:
    """TypeError unless `buyer` is an int (a bool or a float is not a buyer
    id), ValueError unless it is a buyer of the market."""
    if type(buyer) is not int:
        _require_ints((buyer,))
    if not 0 <= buyer < market.n:
        raise ValueError("buyer out of range")


def demand_items(market: Market, buyer: int) -> frozenset:
    """Items the buyer values strictly positively.  A buyer that is not an
    int is a TypeError, one out of range a ValueError."""
    _check_buyer(market, buyer)
    return frozenset(j for j, v in enumerate(market.values[buyer]) if v > 0)


def bundle_utility(market: Market, buyer: int, bundle: Iterable[int]):
    """Utility of `buyer` for `bundle` under the market's class.

    The bundle is read as a set of items.  Perfect complements: min over
    demanded items j of 1/values[buyer][j] if the bundle contains every
    demanded item, else 0.  Perfect substitutes: sum of values over the
    bundle.  A buyer or an item that is not an int is a TypeError, one out
    of range a ValueError.
    """
    _check_buyer(market, buyer)
    if type(bundle) is not frozenset:
        bundle = frozenset(_require_ints(bundle))  # items checked before repeats merge
    for j in bundle:
        if type(j) is not int:
            _require_ints((j,))  # a TypeError for a float or a bool
        if not 0 <= j < market.m:
            raise ValueError("bundle item out of range")
    row = market.values[buyer]
    if market.market_class == ADDITIVE:
        return rational(sum([row[j] for j in bundle]))  # int values add as ints
    demanded = [j for j, v in enumerate(row) if v > 0]
    if not all(j in bundle for j in demanded):
        return ZERO
    return min(ONE / row[j] for j in demanded)


def check_feasible(market: Market, allocation: Allocation) -> Optional[Violation]:
    """None iff bundles are pairwise disjoint, one per buyer, and hold only
    items of type int in range (a float or a bool is no item index)."""
    if len(allocation.bundles) != market.n:
        return Violation(INFEASIBLE_ALLOCATION)
    seen = set()
    for bundle in allocation.bundles:
        for j in bundle:
            if type(j) is not int or not 0 <= j < market.m or j in seen:
                return Violation(INFEASIBLE_ALLOCATION)
            seen.add(j)
    return None


def _check_prices(market: Market, prices: PriceVector) -> None:
    """Raise ValueError unless there is one price per item."""
    if len(prices.prices) != market.m:
        raise ValueError(f"price vector has {len(prices.prices)} prices for {market.m} items")


def check_clearing(market: Market, allocation: Allocation, prices: PriceVector) -> Optional[Violation]:
    """None iff every item is allocated or has price zero; ValueError unless
    there is one price per item."""
    _check_prices(market, prices)
    sold = set()
    for bundle in allocation.bundles:
        sold.update(bundle)
    for j in range(market.m):
        if j not in sold and prices.prices[j] != 0:
            return Violation(ITEM_UNSOLD_POSITIVE_PRICE, item=j)
    return None


def check_budgets(market: Market, allocation: Allocation, prices: PriceVector) -> Optional[Violation]:
    """None iff every buyer's spend is exactly 1; ValueError unless there is
    one price per item."""
    _check_prices(market, prices)
    for i, bundle in enumerate(allocation.bundles):
        spend = ZERO
        for j in bundle:
            spend += prices.prices[j]
        if spend != 1:
            return Violation(BUDGET_NOT_EXHAUSTED, buyer=i)
    return None


def social_welfare(market: Market, allocation: Allocation):
    """Sum of the buyers' utilities under the market's utility class."""
    if check_feasible(market, allocation) is not None:
        raise InfeasibleAllocationError("allocation is not feasible")
    total = ZERO
    for i, bundle in enumerate(allocation.bundles):
        total += bundle_utility(market, i, bundle)
    return total
