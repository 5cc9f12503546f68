"""Command-line front end.

Exit codes: 0 for a positive answer (equilibrium found / verified / exists),
1 for a negative answer (none / violation / a market breaking a structural
invariant) with a JSON body naming the reason, 2 for usage, parse, or
search-cap errors, a price vector whose length is not the item count
included.  Standard output carries exactly one JSON document per
invocation; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import additive, io, leontief, oracle, reductions
from .core import (
    LEONTIEF,
    DEFAULT_CAPS,
    InvalidMarketError,
    SearchCapExceeded,
    SearchCaps,
    social_welfare,
)


class _UsageError(Exception):
    pass


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _read_market(path: str):
    return io.market_from_json(Path(path).read_text())


def _read_allocation(path: str):
    doc = io.solution_from_json(Path(path).read_text())
    if "allocation" not in doc:
        raise _UsageError(f"{path} has no allocation")
    return doc["allocation"]


def _read_prices(path: str, market):
    doc = io.solution_from_json(Path(path).read_text())
    if "prices" not in doc:
        raise _UsageError(f"{path} has no prices")
    prices = doc["prices"]
    if len(prices.prices) != market.m:
        raise _UsageError(f"{path} has {len(prices.prices)} prices for {market.m} items")
    return prices


def _caps(args) -> SearchCaps:
    return SearchCaps(
        max_items=args.cap_items,
        max_states=args.cap_states,
        max_enum_items=max(args.cap_items, DEFAULT_CAPS.max_enum_items),
    )


def _parse_values(text: str):
    return tuple(int(v) for v in text.split(","))


def _parse_set(text: str):
    return frozenset(int(v) for v in text.split(","))


def _cmd_validate(args) -> int:
    try:
        market = _read_market(args.market)
    except InvalidMarketError as exc:
        _emit({"valid": False, "reason": str(exc)})
        return 1
    _emit({"valid": True, "class": market.market_class, "buyers": market.n, "items": market.m})
    return 0


def _verifier(market):
    return leontief.verify_equilibrium if market.market_class == LEONTIEF else additive.verify_equilibrium


def _cmd_verify(args) -> int:
    market = _read_market(args.market)
    allocation = _read_allocation(args.alloc)
    prices = _read_prices(args.prices, market)
    report = _verifier(market)(market, allocation, prices)
    if report.equilibrium:
        _emit({"verdict": "equilibrium"})
        return 0
    _emit({"verdict": "violation", "violation": io.violation_to_obj(report.violation)})
    return 1


def _cmd_solve(args) -> int:
    market = _read_market(args.market)
    if market.market_class == LEONTIEF:
        found = leontief.compute_equilibrium(market)
        if found is None:
            if market.m < market.n:
                reason = "m < n"
            else:
                reason = "duplicate singleton demand sets"
            _emit({"result": "none", "reason": reason})
            return 1
    else:
        found = additive.search_equilibrium(market, _caps(args))
        if found is None:
            _emit({"result": "none", "reason": "no equilibrium"})
            return 1
    allocation, prices = found
    sys.stdout.write(io.solution_to_json(allocation=allocation, prices=prices))
    return 0


def _cmd_prices_for(args) -> int:
    market = _read_market(args.market)
    allocation = _read_allocation(args.alloc)
    if market.market_class == LEONTIEF:
        prices = leontief.prices_for_allocation(market, allocation)
    else:
        prices = additive.prices_for_allocation(market, allocation, _caps(args))
    if prices is None:
        _emit({"result": "none", "reason": "no supporting prices"})
        return 1
    sys.stdout.write(io.solution_to_json(prices=prices))
    return 0


def _cmd_alloc_for(args) -> int:
    market = _read_market(args.market)
    prices = _read_prices(args.prices, market)
    finder = leontief.allocation_for_prices if market.market_class == LEONTIEF else additive.allocation_for_prices
    allocation = finder(market, prices, _caps(args))
    if allocation is None:
        _emit({"result": "none", "reason": "no clearing allocation"})
        return 1
    sys.stdout.write(io.solution_to_json(allocation=allocation))
    return 0


def _cmd_maxwelfare(args) -> int:
    market = _read_market(args.market)
    if market.market_class == LEONTIEF:
        found = leontief.optimal_welfare_equilibrium(market, _caps(args))
    else:
        found = oracle.max_welfare_equilibrium_bruteforce(market, _caps(args))
    if found is None:
        _emit({"result": "none", "reason": "no equilibrium"})
        return 1
    allocation, prices, welfare = found
    sys.stdout.write(io.solution_to_json(allocation=allocation, prices=prices, welfare=welfare))
    return 0


def _cmd_apxwelfare(args) -> int:
    market = _read_market(args.market)
    if market.market_class != LEONTIEF:
        raise _UsageError("apxwelfare requires a leontief market")
    found = leontief.compute_equilibrium_apx_welfare(market)
    if found is None:
        _emit({"result": "none", "reason": "no equilibrium"})
        return 1
    allocation, prices = found
    welfare = social_welfare(market, allocation)
    sys.stdout.write(io.solution_to_json(allocation=allocation, prices=prices, welfare=welfare))
    return 0


def _cmd_oracle(args) -> int:
    market = _read_market(args.market)
    if args.max_welfare:
        found = oracle.max_welfare_equilibrium_bruteforce(market, _caps(args))
        if found is None:
            _emit({"result": "none", "reason": "no equilibrium"})
            return 1
        allocation, prices, welfare = found
        sys.stdout.write(io.solution_to_json(allocation=allocation, prices=prices, welfare=welfare))
        return 0
    found = oracle.equilibrium_exists_bruteforce(market, _caps(args))
    if found is None:
        _emit({"result": "none", "reason": "no equilibrium"})
        return 1
    allocation, prices = found
    sys.stdout.write(io.solution_to_json(allocation=allocation, prices=prices))
    return 0


def _require_args(args, *names) -> None:
    for name in names:
        value = getattr(args, name)
        if value is None or value == []:
            raise _UsageError(f"gen {args.source} needs --{name}")


def _cmd_gen(args) -> int:
    prefix = Path(args.out)
    written = {}

    def write(kind: str, text: str) -> None:
        path = prefix.parent / f"{prefix.name}.{kind}.json"
        path.write_text(text)
        written[kind] = str(path)

    extra = {}
    if args.source == "partition":
        _require_args(args, "values")
        inst = reductions.PartitionInstance(_parse_values(args.values))
        market, prices = reductions.partition_to_leontief(inst)
        write("market", io.market_to_json(market))
        write("prices", io.solution_to_json(prices=prices))
    elif args.source == "partition-prices":
        _require_args(args, "values")
        inst = reductions.PartitionInstance(_parse_values(args.values))
        market, prices = reductions.partition_to_additive_prices(inst)
        write("market", io.market_to_json(market))
        write("prices", io.solution_to_json(prices=prices))
    elif args.source == "subsetsum-verify":
        _require_args(args, "values", "target")
        inst = reductions.SubsetSumInstance(_parse_values(args.values), args.target)
        market, allocation, prices = reductions.subsetsum_to_additive_verify(inst)
        write("market", io.market_to_json(market))
        write("alloc", io.solution_to_json(allocation=allocation))
        write("prices", io.solution_to_json(prices=prices))
    elif args.source == "subsetsum-alloc":
        _require_args(args, "values", "target")
        inst = reductions.SubsetSumInstance(_parse_values(args.values), args.target)
        market, allocation = reductions.subsetsum_to_additive_allocation(inst)
        write("market", io.market_to_json(market))
        write("alloc", io.solution_to_json(allocation=allocation))
    elif args.source == "x3c":
        _require_args(args, "universe", "set")
        inst = reductions.X3CInstance(args.universe, tuple(_parse_set(s) for s in args.set))
        market = reductions.x3c_to_additive(inst)
        write("market", io.market_to_json(market))
    elif args.source == "setpacking":
        _require_args(args, "set", "threshold")
        inst = reductions.SetPackingInstance(tuple(_parse_set(s) for s in args.set), args.threshold)
        market, threshold = reductions.setpacking_to_leontief(inst)
        write("market", io.market_to_json(market))
        extra["threshold"] = threshold
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown source problem {args.source!r}")
    _emit({"written": written, **extra})
    return 0


def _add_caps(parser) -> None:
    parser.add_argument("--cap-items", type=int, default=DEFAULT_CAPS.max_items,
                        help="maximum item count for exhaustive searches")
    parser.add_argument("--cap-states", type=int, default=DEFAULT_CAPS.max_states,
                        help="maximum assignment-space size (n+1)^m")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ceei", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a market file against the structural invariants")
    p.add_argument("--market", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("verify", help="decide whether (allocation, prices) is an equilibrium")
    p.add_argument("--market", required=True)
    p.add_argument("--alloc", required=True)
    p.add_argument("--prices", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="compute an equilibrium if one exists")
    p.add_argument("--market", required=True)
    _add_caps(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("prices-for", help="find prices supporting a given allocation")
    p.add_argument("--market", required=True)
    p.add_argument("--alloc", required=True)
    _add_caps(p)
    p.set_defaults(func=_cmd_prices_for)

    p = sub.add_parser("alloc-for", help="find an allocation clearing given prices")
    p.add_argument("--market", required=True)
    p.add_argument("--prices", required=True)
    _add_caps(p)
    p.set_defaults(func=_cmd_alloc_for)

    p = sub.add_parser("maxwelfare", help="equilibrium with maximum social welfare (exhaustive)")
    p.add_argument("--market", required=True)
    _add_caps(p)
    p.set_defaults(func=_cmd_maxwelfare)

    p = sub.add_parser("apxwelfare", help="equilibrium within 1/n of the best equilibrium welfare")
    p.add_argument("--market", required=True)
    p.set_defaults(func=_cmd_apxwelfare)

    p = sub.add_parser("oracle", help="brute-force equilibrium search (ground truth)")
    p.add_argument("--market", required=True)
    p.add_argument("--max-welfare", action="store_true")
    _add_caps(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate a hardness-gadget instance")
    p.add_argument("source", choices=[
        "partition", "partition-prices", "subsetsum-verify", "subsetsum-alloc", "x3c", "setpacking",
    ])
    p.add_argument("--values", help="comma-separated positive integers")
    p.add_argument("--target", type=int, help="subset-sum target")
    p.add_argument("--universe", type=int, help="universe size (multiple of 3)")
    p.add_argument("--set", action="append", default=[], help="comma-separated set elements (repeatable)")
    p.add_argument("--threshold", type=int, help="set-packing threshold")
    p.add_argument("--out", default="instance", help="output path prefix")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (_UsageError, InvalidMarketError, SearchCapExceeded, ValueError, OSError,
            json.JSONDecodeError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
