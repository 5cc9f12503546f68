"""The stored form of market values: integral values as ints, the rest as
reduced Fractions, with every result the same as from all-Fraction values."""

import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ceei import additive, io, leontief, lp, oracle
from ceei.core import (
    ADDITIVE,
    LEONTIEF,
    Market,
    PriceVector,
    Record,
    bundle_utility,
    demand_items,
    make_allocation,
    make_market,
    make_prices,
    social_welfare,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "ceei"


def test_make_market_stores_integral_values_as_ints():
    kept = Fraction(4, 6)
    market = make_market([[1, Fraction(2), "3/1", "1/2", kept]], ADDITIVE)
    assert market.values == ((1, 2, 3, Fraction(1, 2), Fraction(2, 3)),)
    assert [type(v) for v in market.values[0]] == [int, int, int, Fraction, Fraction]
    assert market.values[0][4] is kept  # a non-integral Fraction is not wrapped again


def test_json_markets_store_the_same_values_and_types():
    text = '{"class":"additive","buyers":1,"items":5,"values":[[1,2,"3/1","1/2","4/6"]]}'
    market = io.market_from_json(text)
    assert market == make_market([[1, Fraction(2), "3/1", "1/2", Fraction(4, 6)]], ADDITIVE)
    assert [type(v) for v in market.values[0]] == [int, int, int, Fraction, Fraction]
    expected = '{"class":"additive","buyers":1,"items":5,"values":[[1,2,3,"1/2","2/3"]]}\n'
    fractions = Market(1, 5, tuple([tuple(map(Fraction, (1, 2, 3, "1/2", "2/3")))]), ADDITIVE)
    assert io.market_to_json(market) == io.market_to_json(fractions) == expected


value_choices = st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 7)])
price_choices = st.sampled_from([0, "1/2", 1, "1/3", "3/7"])


@st.composite
def twin_markets(draw):
    """(a Market built directly from Fraction values, `make_market` on the
    same values): n <= 3 buyers and m <= 4 items of either class."""
    market_class = draw(st.sampled_from([LEONTIEF, ADDITIVE]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    row = st.lists(value_choices, min_size=m, max_size=m)
    if market_class == LEONTIEF:
        row = row.filter(any)  # a Leontief buyer demands at least one item
    rows = [draw(row) for _ in range(n)]
    direct = Market(n, m, tuple(map(tuple, rows)), market_class)
    return direct, make_market(rows, market_class)


def _outcome(call):
    """`call()`'s result, or the type and message of what it raised."""
    try:
        return call()
    except ValueError as error:
        return type(error).__name__, str(error)


def _results(market, x, p):
    """Every public verifier and search, the best responses, price recovery,
    the Leontief constructions and both oracle functions, by name."""
    n = market.n
    out = {
        "demand_items": [demand_items(market, i) for i in range(n)],
        "bundle_utility": [bundle_utility(market, i, b) for i, b in enumerate(x.bundles)],
        "social_welfare": social_welfare(market, x),
        "oracle.exists": oracle.equilibrium_exists_bruteforce(market),
        "oracle.max_welfare": oracle.max_welfare_equilibrium_bruteforce(market),
    }
    if market.market_class == ADDITIVE:
        out["best_affordable_bundle"] = [additive.best_affordable_bundle(market, i, p) for i in range(n)]
        module = additive
        out["search_equilibrium"] = additive.search_equilibrium(market)
    else:
        module = leontief
        out["no_equilibrium_reason"] = leontief.no_equilibrium_reason(market)
        out["compute_equilibrium"] = leontief.compute_equilibrium(market)
        out["compute_equilibrium_apx_welfare"] = leontief.compute_equilibrium_apx_welfare(market)
        out["compute_equilibrium_prealloc"] = [
            _outcome(lambda: leontief.compute_equilibrium_prealloc(market, i, demand_items(market, i)))
            for i in range(n)
        ]
    out["verify_equilibrium"] = module.verify_equilibrium(market, x, p)
    out["prices_for_allocation"] = module.prices_for_allocation(market, x)
    out["allocation_for_prices"] = module.allocation_for_prices(market, p)
    out["optimal_welfare_equilibrium"] = module.optimal_welfare_equilibrium(market)
    out["price_support"] = _outcome(lambda: lp.solve_lp(module.price_support_lp(market, x)))
    return out


def _parts(obj):
    """`obj` and everything inside it, records and containers opened."""
    yield obj
    if isinstance(obj, Record):
        obj = obj._values()
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list, frozenset)):
        for item in obj:
            yield from _parts(item)


def _quantities(results):
    """The utilities, welfare values, prices and LP numbers in `results`."""
    yield from results["bundle_utility"]
    yield results["social_welfare"]
    for name in ("oracle.max_welfare", "optimal_welfare_equilibrium"):
        if results[name] is not None:
            yield results[name][2]
    for _, value in results.get("best_affordable_bundle", ()):
        yield value
    solved = results["price_support"]
    if isinstance(solved, lp.LPResult) and solved.status == lp.OPTIMAL:
        yield from solved.point
        yield solved.value
    for part in _parts(results):
        if isinstance(part, PriceVector):
            yield from part.prices


@settings(max_examples=100, deadline=None)
@given(twin_markets(), st.data())
def test_int_and_fraction_twin_markets_give_the_same_results(twins, data):
    direct, built = twins
    assert direct == built and hash(direct) == hash(built)
    assert all(type(v) is Fraction for row in direct.values for v in row)
    owners = [data.draw(st.integers(0, built.n), label=f"owner_{j}") for j in range(built.m)]
    x = make_allocation([[j for j, o in enumerate(owners) if o == i] for i in range(built.n)])
    p = make_prices([data.draw(price_choices, label=f"p_{j}") for j in range(built.m)])
    ours, theirs = _results(built, x, p), _results(direct, x, p)
    assert ours == theirs
    assert repr(ours) == repr(theirs)  # the same numbers of the same types
    assert not any(isinstance(part, float) for part in _parts(ours))
    assert all(type(q) is Fraction for q in _quantities(ours))


# Every true division in src/ceei: (module, function, numerator).  A `/` of
# two ints makes a float, and market values may now be ints, so each
# numerator here is the Fraction ONE or eps (or, in cli, a path).
AUDITED_DIVISIONS = [
    ("cli", "_cmd_gen", "prefix.parent"),
    ("core", "bundle_utility", "ONE"),
    ("leontief", "_uniform_prices", "ONE"),
    ("leontief", "compute_equilibrium_prealloc", "ONE"),
    ("leontief", "compute_equilibrium_prealloc", "ONE - eps"),
    ("leontief", "compute_equilibrium_prealloc", "eps"),
    ("leontief", "compute_equilibrium_apx_welfare", "ONE"),
    ("oracle", "_scores", "ONE"),
]


class _Divisions(ast.NodeVisitor):
    def __init__(self, module):
        self.module, self.scope, self.found = module, [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def _record(self, numerator):
        self.found.append((self.module, ".".join(self.scope), ast.unparse(numerator)))

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.Div):
            self._record(node.left)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.Div):
            self._record(node.target)
        self.generic_visit(node)


def test_every_true_division_is_audited():
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Divisions(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found.extend(visitor.found)
    assert sorted(found) == sorted(AUDITED_DIVISIONS)
