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


def format_rational(q) -> object:
    """Bare int when the denominator is 1, else a reduced "p/q" string."""
    num, den = q.numerator, q.denominator
    return num if den == 1 else f"{num}/{den}"


def parse_rational(value):
    """A JSON int, or a string in `core.rational`'s grammar; ValueError for
    any other JSON value."""
    if type(value) is not int and type(value) is not str:
        raise ValueError(f"not an exact rational: {value!r}")
    return rational(value)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; ValueError for a repeated key,
    which `json` would otherwise resolve silently, the last one winning."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object repeats key {key!r}")
        obj[key] = value
    return obj


def _load(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


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
    for key in ("buyers", "items"):
        if type(obj[key]) is not int:
            raise ValueError(f"{key!r} must be a JSON integer, not {obj[key]!r}")
    if not isinstance(obj["values"], list) or not all(isinstance(row, list) for row in obj["values"]):
        raise ValueError("'values' must be a list of value lists")
    values = [[parse_rational(v) for v in row] for row in obj["values"]]
    market = make_market(values, obj["class"])
    if market.n != obj["buyers"] or market.m != obj["items"]:
        raise InvalidMarketError("buyers/items counts disagree with the value matrix")
    return market


def market_from_json(text: str) -> Market:
    return obj_to_market(_load(text))


def allocation_to_obj(allocation: Allocation) -> list:
    return [sorted(j + 1 for j in bundle) for bundle in allocation.bundles]


def obj_to_allocation(obj) -> Allocation:
    """Each bundle must list distinct JSON integers; their range and the
    disjointness of bundles are left to the feasibility check."""
    if not isinstance(obj, list) or not all(isinstance(bundle, list) for bundle in obj):
        raise ValueError("allocation must be a list of item-index lists")
    for bundle in obj:
        if not all(type(j) is int for j in bundle) or len(set(bundle)) != len(bundle):
            raise ValueError(f"bundle {bundle!r} must list distinct integer item indices")
    return Allocation(frozenset(j - 1 for j in bundle) for bundle in obj)


def prices_to_obj(prices: PriceVector) -> list:
    return [str(format_rational(p)) for p in prices.prices]


def obj_to_prices(obj) -> PriceVector:
    if not isinstance(obj, list):
        raise ValueError("prices must be a list of rational strings")
    return PriceVector(parse_rational(p) for p in obj)


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
) -> str:
    out = {}
    if allocation is not None:
        out["allocation"] = allocation_to_obj(allocation)
    if prices is not None:
        out["prices"] = prices_to_obj(prices)
    if welfare is not None:
        out["welfare"] = str(format_rational(welfare))
    return _dump(out)


def solution_from_json(text: str) -> dict:
    obj = _load(text)
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
