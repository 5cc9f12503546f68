"""Command-line front end.

Exit codes: 0 for a positive answer (equilibrium found / verified / exists),
1 only for the command's own negative answer (none / violation /
`validate`'s invalid verdict) with a JSON body naming the reason, 2 for
usage, parse, or search-cap errors, a price vector whose length is not the
item count and an allocation whose bundle count is not the buyer count
included.  A market breaking a structural invariant is exit 1 only from
`validate`; every other command rejects it as an input error, exit 2.
Standard output carries exactly one JSON document per invocation;
diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from importlib import import_module
from pathlib import Path
from typing import NoReturn

from . import io
from .core import (
    LEONTIEF,
    DEFAULT_CAPS,
    InvalidMarketError,
    SearchCapExceeded,
    SearchCaps,
    integer,
    social_welfare,
)


class _UsageError(Exception):
    pass


def _emit(obj) -> None:
    sys.stdout.write(io._dump(obj))


def _answer(found, reason: str, *fields: str) -> int:
    """Write `found` as a solution document naming `fields` (a single field
    takes `found` whole) and return 0, or, when nothing was found, the
    negative answer with its reason and return 1."""
    if found is None:
        _emit({"result": "none", "reason": reason})
        return 1
    values = found if len(fields) > 1 else (found,)
    sys.stdout.write(io.solution_to_json(**dict(zip(fields, values))))
    return 0


def _class_module(market):
    """The market's class module, imported on first use, so a request
    compiles only the module its market's class needs."""
    return import_module(".leontief" if market.market_class == LEONTIEF else ".additive", __package__)


def _read_market(path: str):
    return io.market_from_json(Path(path).read_text())


def _read_solution(path: str, key: str):
    doc = io.solution_from_json(Path(path).read_text())
    if key not in doc:
        raise _UsageError(f"{path} has no {key}")
    return doc[key]


def _read_allocation(path: str, market):
    allocation = _read_solution(path, "allocation")
    if len(allocation.bundles) != market.n:
        raise _UsageError(f"{path} has {len(allocation.bundles)} bundles for {market.n} buyers")
    return allocation


def _read_prices(path: str, market):
    prices = _read_solution(path, "prices")
    if len(prices.prices) != market.m:
        raise _UsageError(f"{path} has {len(prices.prices)} prices for {market.m} items")
    return prices


# The reader of each document a command takes besides --market, by flag.
_READERS = {"alloc": _read_allocation, "prices": _read_prices}


def _caps(args) -> SearchCaps:
    return SearchCaps(max_items=args.cap_items, max_states=args.cap_states, max_enum_items=args.cap_enum)


def _cmd_validate(args) -> int:
    try:
        market = _read_market(args.market)
    except InvalidMarketError as exc:
        _emit({"valid": False, "reason": str(exc)})
        return 1
    _emit({"valid": True, "class": market.market_class, "buyers": market.n, "items": market.m})
    return 0


def _enum_caps(args, market) -> tuple:
    """The caps argument of a command whose Leontief function takes none:
    Leontief verification and price recovery are polynomial."""
    return () if market.market_class == LEONTIEF else (_caps(args),)


def _cmd_verify(args, market, allocation, prices) -> int:
    report = _class_module(market).verify_equilibrium(market, allocation, prices, *_enum_caps(args, market))
    if report.equilibrium:
        _emit({"verdict": "equilibrium"})
        return 0
    _emit({"verdict": "violation", "violation": io.violation_to_obj(report.violation)})
    return 1


def _cmd_solve(args, market) -> int:
    algorithms = _class_module(market)
    if market.market_class == LEONTIEF:  # constructive and polynomial: no caps
        found = algorithms.compute_equilibrium(market)
        reason = None if found is not None else algorithms.no_equilibrium_reason(market)
    else:
        found, reason = algorithms.search_equilibrium(market, _caps(args)), "no equilibrium"
    return _answer(found, reason, "allocation", "prices")


def _cmd_prices_for(args, market, allocation) -> int:
    prices = _class_module(market).prices_for_allocation(market, allocation, *_enum_caps(args, market))
    return _answer(prices, "no supporting prices", "prices")


def _cmd_alloc_for(args, market, prices) -> int:
    allocation = _class_module(market).allocation_for_prices(market, prices, _caps(args))
    return _answer(allocation, "no clearing allocation", "allocation")


def _cmd_maxwelfare(args, market) -> int:
    found = _class_module(market).optimal_welfare_equilibrium(market, _caps(args))
    return _answer(found, "no equilibrium", "allocation", "prices", "welfare")


def _cmd_apxwelfare(args, market) -> int:
    if market.market_class != LEONTIEF:
        raise _UsageError("apxwelfare requires a leontief market")
    found = _class_module(market).compute_equilibrium_apx_welfare(market)
    if found is not None:
        found = (*found, social_welfare(market, found[0]))
    return _answer(found, "no equilibrium", "allocation", "prices", "welfare")


def _cmd_oracle(args, market) -> int:
    from . import oracle  # loaded here only, so other commands start faster

    if args.max_welfare:
        found = oracle.max_welfare_equilibrium_bruteforce(market, _caps(args))
        return _answer(found, "no equilibrium", "allocation", "prices", "welfare")
    found = oracle.equilibrium_exists_bruteforce(market, _caps(args))
    return _answer(found, "no equilibrium", "allocation", "prices")


# One row per `gen` source: the `reductions` instance class, the flags it is
# built from in constructor order, the generator, and where each of the
# generator's outputs goes (a `market`, `alloc` or `prices` file, or the
# `threshold` echoed on stdout).  Rows name what they use, so `reductions`
# loads only when `gen` runs.
_GEN_SOURCES = {
    "partition": ("PartitionInstance", ("values",), "partition_to_leontief", ("market", "prices")),
    "partition-prices": ("PartitionInstance", ("values",), "partition_to_additive_prices", ("market", "prices")),
    "subsetsum-verify": ("SubsetSumInstance", ("values", "target"), "subsetsum_to_additive_verify",
                         ("market", "alloc", "prices")),
    "subsetsum-alloc": ("SubsetSumInstance", ("values", "target"), "subsetsum_to_additive_allocation",
                        ("market", "alloc")),
    "x3c": ("X3CInstance", ("universe", "set"), "x3c_to_additive", ("market",)),
    "setpacking": ("SetPackingInstance", ("set", "threshold"), "setpacking_to_leontief", ("market", "threshold")),
}
# Every flag some source takes, in the order they are checked.
_GEN_FLAGS = tuple(dict.fromkeys(name for row in _GEN_SOURCES.values() for name in row[1]))


def _gen_set(text: str) -> frozenset:
    elements = [integer(v) for v in text.split(",")]
    if len(set(elements)) < len(elements):
        raise _UsageError(f"--set {text} repeats an element")
    return frozenset(elements)


# The flags given as comma-separated text; argparse has made the others ints.
_GEN_PARSE = {
    "values": lambda text: tuple(integer(v) for v in text.split(",")),
    "set": lambda texts: tuple(map(_gen_set, texts)),
}


def _cmd_gen(args) -> int:
    from . import reductions  # loaded here only, so other commands start faster

    instance, flags, generator, outputs = _GEN_SOURCES[args.source]
    for name in _GEN_FLAGS:  # every flag is checked before any is parsed
        given = getattr(args, name) not in (None, [])
        if given != (name in flags):
            raise _UsageError(f"gen {args.source} {'does not take' if given else 'needs'} --{name}")
    fields = [_GEN_PARSE.get(name, int)(getattr(args, name)) for name in flags]
    found = getattr(reductions, generator)(getattr(reductions, instance)(*fields))
    prefix = Path(args.out)
    doc = {"written": {}}
    for kind, value in zip(outputs, found if len(outputs) > 1 else (found,)):
        if kind == "threshold":
            doc[kind] = value
            continue
        path = prefix.parent / f"{prefix.name}.{kind}.json"
        key = "allocation" if kind == "alloc" else kind
        path.write_text(io.market_to_json(value) if kind == "market" else io.solution_to_json(**{key: value}))
        doc["written"][kind] = str(path)
    _emit(doc)
    return 0


@cache  # parsing leaves the parser unchanged, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ceei", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # The search caps, declared once and shared by every command they apply to.
    cap_flags = argparse.ArgumentParser(add_help=False)
    cap_flags.add_argument("--cap-items", type=integer, default=DEFAULT_CAPS.max_items,
                           help="maximum item count for exhaustive searches")
    cap_flags.add_argument("--cap-states", type=integer, default=DEFAULT_CAPS.max_states,
                           help="maximum search size (n^m; oracle: (n+1)^m, or (n+1)^m * n * 2^m if additive)")
    cap_flags.add_argument("--cap-enum", type=integer, default=DEFAULT_CAPS.max_enum_items,
                           help="maximum item count for per-buyer bundle enumeration")
    # name, handler, help, files `main` reads besides --market, whether search caps apply
    for name, func, text, files, caps in (
        ("validate", _cmd_validate, "check a market file against the structural invariants", (), False),
        ("verify", _cmd_verify, "decide whether (allocation, prices) is an equilibrium",
         ("alloc", "prices"), True),
        ("solve", _cmd_solve, "compute an equilibrium if one exists", (), True),
        ("prices-for", _cmd_prices_for, "find prices supporting a given allocation", ("alloc",), True),
        ("alloc-for", _cmd_alloc_for, "find an allocation clearing given prices", ("prices",), True),
        ("maxwelfare", _cmd_maxwelfare, "equilibrium with maximum social welfare (exhaustive)", (), True),
        ("apxwelfare", _cmd_apxwelfare, "equilibrium within 1/n of the best equilibrium welfare", (), False),
        ("oracle", _cmd_oracle, "brute-force equilibrium search (ground truth)", (), True),
    ):
        p = sub.add_parser(name, help=text, parents=[cap_flags] if caps else [])
        for flag in ("market", *files):
            p.add_argument(f"--{flag}", required=True)
        if name == "oracle":
            p.add_argument("--max-welfare", action="store_true")
        p.set_defaults(func=func, files=files)

    p = sub.add_parser("gen", help="generate a hardness-gadget instance")
    p.add_argument("source", choices=list(_GEN_SOURCES))
    p.add_argument("--values", help="comma-separated positive integers")
    p.add_argument("--target", type=integer, help="subset-sum target")
    p.add_argument("--universe", type=integer, help="universe size (multiple of 3)")
    p.add_argument("--set", action="append", default=[], help="comma-separated set elements (repeatable)")
    p.add_argument("--threshold", type=integer, help="set-packing threshold")
    p.add_argument("--out", default="instance", help="output path prefix")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    """Run one request, `argv` or the process's arguments, and return its
    exit code; the process goes on."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.func in (_cmd_validate, _cmd_gen):  # an invalid market is validate's answer; gen has none
            return args.func(args)
        market = _read_market(args.market)  # then each listed document, in the table's order
        return args.func(args, market, *[_READERS[flag](getattr(args, flag), market) for flag in args.files])
    except (_UsageError, SearchCapExceeded, ValueError, OSError, TypeError) as exc:  # ValueError: bad JSON too
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> NoReturn:
    """The process entry point of `ceei`, `python -m ceei` and `python -m
    ceei.cli`: run `main`, flush the answer, and end the process with
    `main`'s exit code, skipping the interpreter's teardown, which would
    only free memory the process gives back anyway.  A flush that fails (a
    closed pipe) is an error like any other, exit 2.  Under a profiler or
    tracer (`python -m cProfile -m ceei`, `trace`, coverage, a debugger)
    the process ends through `sys.exit` instead, so the tool's report at
    exit is still written."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    if sys.getprofile() is None and sys.gettrace() is None:
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    console_entry()
