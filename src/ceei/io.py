"""JSON instance and solution formats.

External indices are 1-based (buyers and items alike); this module is the
only place the shift happens.  Rationals serialize reduced, as bare
integers where possible in value matrices and as "p/q" strings everywhere
else; floats are never read or written.  Serialization is canonical (fixed
key order, compact separators, trailing newline) so re-serializing a parsed
document is byte-identical.
"""

from __future__ import annotations

import json
from typing import Optional

from .core import (
    Allocation,
    InvalidMarketError,
    Market,
    PriceVector,
    Violation,
    make_market,
    rational,
)

SUPPORTED_CLASSES = ("leontief", "additive")


def format_rational(q) -> object:
    """Bare int when the denominator is 1, else a reduced "p/q" string."""
    num, den = int(q.numerator), int(q.denominator)
    return num if den == 1 else f"{num}/{den}"


def format_rational_str(q) -> str:
    return f"{int(q.numerator)}/{int(q.denominator)}" if int(q.denominator) != 1 else str(int(q.numerator))


def parse_rational(value):
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return rational(value)
    if isinstance(value, str):
        try:
            return rational(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"not an exact rational: {value!r}")


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def market_to_obj(market: Market) -> dict:
    return {
        "class": market.market_class,
        "buyers": market.n,
        "items": market.m,
        "values": [[format_rational(v) for v in row] for row in market.values],
    }


def market_to_json(market: Market) -> str:
    return _dump(market_to_obj(market))


def obj_to_market(obj: dict) -> Market:
    if not isinstance(obj, dict):
        raise ValueError("instance document must be a JSON object")
    for key in ("class", "buyers", "items", "values"):
        if key not in obj:
            raise ValueError(f"instance document missing key {key!r}")
    values = [[parse_rational(v) for v in row] for row in obj["values"]]
    market = make_market(values, obj["class"])
    if market.n != obj["buyers"] or market.m != obj["items"]:
        raise InvalidMarketError("buyers/items counts disagree with the value matrix")
    return market


def market_from_json(text: str) -> Market:
    return obj_to_market(json.loads(text))


def allocation_to_obj(allocation: Allocation) -> list:
    return [sorted(j + 1 for j in bundle) for bundle in allocation.bundles]


def obj_to_allocation(obj) -> Allocation:
    if not isinstance(obj, list):
        raise ValueError("allocation must be a list of item-index lists")
    return Allocation(tuple(frozenset(int(j) - 1 for j in bundle) for bundle in obj))


def prices_to_obj(prices: PriceVector) -> list:
    return [format_rational_str(p) for p in prices.prices]


def obj_to_prices(obj) -> PriceVector:
    if not isinstance(obj, list):
        raise ValueError("prices must be a list of rational strings")
    return PriceVector(tuple(parse_rational(p) for p in obj))


def violation_to_obj(violation: Violation) -> dict:
    out = {"kind": violation.kind}
    if violation.buyer is not None:
        out["buyer"] = violation.buyer + 1
    if violation.item is not None:
        out["item"] = violation.item + 1
    if violation.witness is not None:
        out["bundle"] = sorted(j + 1 for j in violation.witness)
    return out


def solution_to_json(
    allocation: Optional[Allocation] = None,
    prices: Optional[PriceVector] = None,
    welfare=None,
    witness: Optional[Violation] = None,
) -> str:
    out = {}
    if allocation is not None:
        out["allocation"] = allocation_to_obj(allocation)
    if prices is not None:
        out["prices"] = prices_to_obj(prices)
    if welfare is not None:
        out["welfare"] = format_rational_str(welfare)
    if witness is not None:
        out["witness"] = violation_to_obj(witness)
    return _dump(out)


def solution_from_json(text: str) -> dict:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("solution document must be a JSON object")
    out = dict(obj)
    if "allocation" in obj:
        out["allocation"] = obj_to_allocation(obj["allocation"])
    if "prices" in obj:
        out["prices"] = obj_to_prices(obj["prices"])
    if "welfare" in obj:
        out["welfare"] = parse_rational(obj["welfare"])
    return out
