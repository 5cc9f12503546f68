import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ceei import additive, leontief
from ceei.core import (
    Allocation,
    InfeasibleAllocationError,
    InvalidMarketError,
    Market,
    PriceVector,
    SearchCaps,
    Violation,
    bundle_utility,
    check_budgets,
    check_clearing,
    check_feasible,
    demand_items,
    make_allocation,
    make_market,
    make_prices,
    rational,
    social_welfare,
    validate_market,
)
from ceei.lp import LPResult
from ceei.reductions import PartitionInstance, SetPackingInstance, SubsetSumInstance, X3CInstance

from conftest import Id, example1_market, example2_market, example3_market

rationals = st.fractions(max_denominator=10**4).map(rational)


@given(rationals, rationals)
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a
    assert a + b == b + a


@given(rationals)
def test_rational_is_reduced_with_positive_denominator(a):
    import math

    assert a.denominator > 0
    assert math.gcd(int(a.numerator), int(a.denominator)) == 1


def test_rational_parses_strings_and_ints():
    assert rational("1/3") * 3 == 1
    assert rational(7) == 7
    assert rational(1, 3) + rational(2, 3) == 1
    assert rational(6, 36) == rational("1/2", 3) == rational(rational(1, 2), 3) == rational("1/6")
    assert rational(" -2/4\n") == rational("-1/2") and rational("007/010") == rational(7, 10)
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        rational("1/0")


@pytest.mark.parametrize("value", [0.1, 0.5, 1.0, True, False, None, [1], pytest.param(Id.B, id="int-enum")])
def test_rational_rejects_floats_bools_and_other_types(value):
    # 0.1 would otherwise be stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="not an exact rational"):
        rational(value)
    with pytest.raises(TypeError, match="not an exact rational"):
        rational(value, 3)


@pytest.mark.parametrize("value", [0.1, True])
def test_market_and_prices_reject_floats_and_bools(value):
    with pytest.raises(TypeError, match="not an exact rational"):
        make_market([[value]], "additive")
    with pytest.raises(TypeError, match="not an exact rational"):
        make_market([[1, value]], "leontief")
    with pytest.raises(TypeError, match="not an exact rational"):
        make_prices([1, value])
    # built directly: the Leontief verifier would pass such prices in float arithmetic
    with pytest.raises(TypeError, match="not an exact rational"):
        PriceVector((value, 1))
    with pytest.raises(TypeError, match="not an exact rational"):
        validate_market(Market(1, 2, ((value, 1),), "additive"))


class TestValidateMarket:
    def test_minimal_market(self):
        market = make_market([[1]], "leontief")
        assert (market.n, market.m) == (1, 1)
        assert validate_market(market) is market

    def test_leontief_all_zero_row_rejected(self):
        with pytest.raises(InvalidMarketError, match="empty demand set"):
            make_market([[1, 0], [0, 0]], "leontief")

    def test_additive_all_zero_row_allowed(self):
        assert make_market([[0, 0]], "additive").n == 1

    def test_example1_market_valid(self):
        market = example1_market()
        assert demand_items(market, 0) == {0}
        assert demand_items(market, 1) == {1, 3}
        assert demand_items(market, 2) == {0, 1, 2}

    def test_negative_value_rejected(self):
        with pytest.raises(InvalidMarketError, match="negative"):
            make_market([[-1]], "additive")

    def test_empty_market_rejected(self):
        with pytest.raises(InvalidMarketError):
            validate_market(Market(n=0, m=0, values=(), market_class="additive"))

    def test_unknown_class_rejected(self):
        with pytest.raises(InvalidMarketError, match="class"):
            make_market([[1]], "cobb-douglas")

    def test_ragged_matrix_rejected(self):
        with pytest.raises(InvalidMarketError):
            validate_market(Market(n=2, m=2, values=((rational(1), rational(1)), (rational(1),)),
                                   market_class="additive"))


# One record of each module that defines records: the class, its positional
# arguments, every field by name (defaults included), its repr, and the
# arguments of a record that differs in one field.
RECORDS = {
    "core": (Violation, ("k", 1), {"kind": "k", "buyer": 1, "item": None, "witness": None},
             "Violation(kind='k', buyer=1, item=None, witness=None)", ("k", 2)),
    "lp": (LPResult, ("optimal",), {"status": "optimal", "point": None, "value": None},
           "LPResult(status='optimal', point=None, value=None)", ("infeasible",)),
    "reductions": (SubsetSumInstance, ((1, 2), 3), {"values": (1, 2), "target": 3},
                   "SubsetSumInstance(values=(1, 2), target=3)", ((1, 2), 4)),
}


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS.keys())
class TestRecord:
    def test_positional_and_keyword_construction_with_defaults(self, record):
        cls, args, fields, *_ = record
        for made in (cls(*args), cls(**{k: v for k, v in fields.items() if v is not None})):
            assert {name: getattr(made, name) for name in fields} == fields

    def test_unknown_or_missing_field_is_a_type_error(self, record):
        cls, args, *_ = record
        with pytest.raises(TypeError):
            cls(*args, unknown=1)
        with pytest.raises(TypeError):
            cls()

    def test_equality_and_hash_by_exact_type_and_values(self, record):
        cls, args, fields, _, differing = record
        same, other = cls(*args), cls(**fields)
        assert same == other and hash(same) == hash(other) == hash(tuple(fields.values()))
        assert cls(*args) != cls(*differing)
        subclass = type("Sub", (cls,), {})
        assert cls(*args) != subclass(*args)
        assert cls(*args) != tuple(fields.values())

    def test_repr(self, record):
        cls, args, _, text, _ = record
        assert repr(cls(*args)) == text

    def test_setting_or_deleting_an_attribute_raises(self, record):
        cls, args, fields, *_ = record
        made = cls(*args)
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(made, name, 0)
        with pytest.raises(AttributeError):
            delattr(made, name)
        with pytest.raises(AttributeError):
            made.extra = 0
        assert getattr(made, name) == fields[name]

    def test_pickle_and_deepcopy_round_trip(self, record):
        cls, args, *_ = record
        made = cls(*args)
        copies = [pickle.loads(pickle.dumps(made, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in [*copies, copy.deepcopy(made), copy.copy(made)]:
            assert type(again) is cls and again == made


@pytest.mark.parametrize("make, message", [
    (lambda: PriceVector((rational(1), rational(-1))), "nonnegative"),
    (lambda: PartitionInstance(()), "nonempty list of positive integers"),
    (lambda: PartitionInstance((1, 0)), "nonempty list of positive integers"),
    (lambda: SubsetSumInstance((), 1), "nonempty list of positive integers"),
    (lambda: SubsetSumInstance((1,), 0), "target must be positive"),
    (lambda: X3CInstance(4, ()), "multiple of 3"),
    (lambda: X3CInstance(3, (frozenset({1, 2}),)), "exactly 3 universe elements"),
    (lambda: X3CInstance(3, (frozenset({1, 2, 4}),)), "exactly 3 universe elements"),
    (lambda: X3CInstance(3, ((1, 1, 2),)), "exactly 3 universe elements"),
    (lambda: SetPackingInstance((), 1), "nonempty sets"),
    (lambda: SetPackingInstance((frozenset(),), 1), "nonempty sets"),
    (lambda: SetPackingInstance((frozenset({1}),), 2), "threshold must be between"),
    (lambda: SetPackingInstance((frozenset({0}),), 1), "positive integers"),
])
def test_record_construction_checks(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("make", [
    lambda: PartitionInstance((1.5, 2.5)),
    lambda: PartitionInstance((True, True)),
    lambda: SubsetSumInstance((2.7, 1), 3.9),
    lambda: SubsetSumInstance((2, 1), 3.0),
    lambda: SubsetSumInstance((2, 1), True),
    lambda: X3CInstance(3.0, ((1, 2, 3),)),
    lambda: X3CInstance(3, ((1.0, 2, 3),)),
    lambda: X3CInstance(3, ((True, 2, 3),)),
    lambda: SetPackingInstance(((1,),), True),
    lambda: SetPackingInstance(((1.5,),), 1),
    lambda: SetPackingInstance((frozenset({1}), frozenset({False})), 1),
    lambda: SetPackingInstance(((1, True),), 1),
    lambda: X3CInstance(3, ((1, 2, 3, 1.0),)),
], ids=["partition-float", "partition-bool", "subsetsum-floats", "subsetsum-float-target",
        "subsetsum-bool-target", "x3c-float-universe", "x3c-float-element", "x3c-bool-element",
        "setpacking-bool-threshold", "setpacking-float-element", "setpacking-bool-element",
        "setpacking-bool-repeat", "x3c-float-repeat"])
def test_record_construction_refuses_non_ints(make):
    """Values, targets, universe sizes, thresholds and set elements are ints;
    a float or a bool is a TypeError, as in `rational`, not coerced."""
    with pytest.raises(TypeError, match="not an integer"):
        make()


@pytest.mark.parametrize("field", ["max_items", "max_states", "max_enum_items"])
@pytest.mark.parametrize("value", [True, 2.5, "12"])
def test_search_caps_refuse_non_ints(field, value):
    # a bool acted as a cap of 1, a float was compared as a float, and a
    # string died inside the search on '>' between int and str
    with pytest.raises(TypeError, match="not an integer"):
        SearchCaps(**{field: value})


class TestSocialWelfare:
    def test_pair_demands_baseline_allocation(self):
        market = example3_market(2)
        x = make_allocation([[0], [1, 2, 3]])
        assert social_welfare(market, x) == 1

    def test_pair_demands_full_allocation(self):
        market = example3_market(2)
        x = make_allocation([[0, 1], [2, 3]])
        assert social_welfare(market, x) == 2

    def test_empty_bundles_additive(self):
        market = make_market([[3, 2], [1, 1]], "additive")
        assert social_welfare(market, make_allocation([[], []])) == 0

    def test_infeasible_allocation_raises(self):
        market = example3_market(2)
        with pytest.raises(InfeasibleAllocationError):
            social_welfare(market, make_allocation([[0, 1], [1, 2]]))


class TestChecks:
    def test_unsold_zero_price_ok(self):
        market = make_market([[1]], "leontief")
        assert check_clearing(market, make_allocation([[]]), make_prices([0])) is None

    def test_unsold_positive_price_violation(self):
        market = make_market([[1]], "leontief")
        violation = check_clearing(market, make_allocation([[]]), make_prices([1]))
        assert violation.kind == "item-unsold-positive-price"
        assert violation.item == 0

    def test_example2_clears(self):
        market = example2_market()
        x = make_allocation([[0], [1], [2], [3], [4], [5, 6, 7]])
        p = make_prices([1, 1, 1, 1, 1, "1/3", "1/3", "1/3"])
        assert check_clearing(market, x, p) is None
        assert check_budgets(market, x, p) is None

    def test_budget_exactly_one_ok(self):
        market = make_market([[1]], "leontief")
        assert check_budgets(market, make_allocation([[0]]), make_prices([1])) is None

    def test_budget_five_sixths_violation(self):
        market = make_market([[1, 1]], "additive")
        violation = check_budgets(market, make_allocation([[0, 1]]), make_prices(["1/2", "1/3"]))
        assert violation.kind == "budget-not-exhausted"
        assert violation.buyer == 0

    def test_feasibility_catches_reuse_and_range(self):
        market = make_market([[1, 1], [1, 1]], "additive")
        assert check_feasible(market, make_allocation([[0], [0]])) is not None
        assert check_feasible(market, make_allocation([[2], []])) is not None
        assert check_feasible(market, make_allocation([[0], [1]])) is None

    @pytest.mark.parametrize("item", [1.0, 1.5, True], ids=["float-1", "float-1.5", "bool"])
    def test_feasibility_refuses_an_item_that_is_not_an_int(self, item):
        # built directly: make_allocation refuses such an item itself
        market = make_market([[1, 1], [1, 1]], "additive")
        x = Allocation((frozenset([0]), frozenset([item])))
        assert check_feasible(market, x) == Violation("infeasible-allocation")


@pytest.mark.parametrize("bundles", [[[0], [1, 1.0]], [[0], [1.0, 1]], [[0], [1, True]], [[True], [1]],
                                     [[0], [1.5]], [[Id.A], [Id.B]]],
                         ids=["int-then-float", "float-then-int", "int-then-bool", "bool", "float-1.5", "int-enum"])
def test_make_allocation_refuses_an_item_that_is_not_an_int(bundles):
    # frozenset([1, 1.0]) would keep 1 and frozenset([1.0, 1]) would keep
    # 1.0, so the order of the items would decide the verdict
    with pytest.raises(TypeError, match="not an integer"):
        make_allocation(bundles)


@pytest.mark.parametrize("market_class", ["leontief", "additive"])
@pytest.mark.parametrize("buyer, error", [(True, TypeError), (1.0, TypeError), ("1", TypeError),
                                          (Id.B, TypeError), (-1, ValueError), (2, ValueError)],
                         ids=["bool", "float", "string", "int-enum", "negative", "past-the-end"])
def test_buyer_helpers_refuse_a_buyer_that_is_not_one(market_class, buyer, error):
    # a bool would read as buyer 1 and -1 as the last buyer
    market = make_market([[1, 2], [3, 4]], market_class)
    match = "not an integer" if error is TypeError else "buyer out of range"
    with pytest.raises(error, match=match):
        bundle_utility(market, buyer, [0])
    with pytest.raises(error, match=match):
        demand_items(market, buyer)


@pytest.mark.parametrize("market_class", ["leontief", "additive"])
@pytest.mark.parametrize("bundle, error", [([-1], ValueError), ([3], ValueError), ([0, 2, 7], ValueError),
                                           ([0.0], TypeError), ([1, 1.0], TypeError), ([1.0, 1], TypeError),
                                           ([True], TypeError), (frozenset({0, 1.5}), TypeError),
                                           ([Id.A], TypeError), (frozenset({Id.A}), TypeError)],
                         ids=["negative", "past-the-end", "beyond-the-demand", "float", "float-after",
                              "float-before", "bool", "frozen-float", "int-enum", "frozen-int-enum"])
def test_bundle_utility_refuses_an_item_that_is_not_one(market_class, bundle, error):
    # -1 would read as the last item, and the Leontief branch ignored item 7
    market = make_market([[1, 0, 1], [0, 1, 0]], market_class)
    with pytest.raises(error, match="not an integer" if error is TypeError else "item out of range"):
        bundle_utility(market, 0, bundle)


@pytest.mark.parametrize("market_class, utility", [("additive", 2), ("leontief", 1)])
def test_bundle_utility_reads_the_bundle_as_a_set(market_class, utility):
    market = make_market([[1, 0, 1], [0, 1, 0]], market_class)
    assert bundle_utility(market, 0, [0, 0, 2]) == bundle_utility(market, 0, iter([2, 0])) == utility


@pytest.mark.parametrize("market_class, module", [("leontief", leontief), ("additive", additive)],
                         ids=["leontief", "additive"])
@pytest.mark.parametrize("bundles", [[[0], [1, 2.0]], [[0], [1.5]], [[0], [True, 2]]],
                         ids=["float-2", "float-1.5", "bool-1"])
def test_an_item_that_is_not_an_int_makes_the_allocation_infeasible(market_class, module, bundles):
    market = make_market([[1, 0, 0], [0, 1, 1]], market_class)
    x = Allocation(tuple(frozenset(b) for b in bundles))  # make_allocation refuses such an item itself
    report = module.verify_equilibrium(market, x, make_prices([1, "1/2", "1/2"]))
    assert report.violation == Violation("infeasible-allocation")
    assert module.prices_for_allocation(market, x) is None


@pytest.mark.parametrize("market_class, module", [("leontief", leontief), ("additive", additive)],
                         ids=["leontief", "additive"])
@pytest.mark.parametrize("prices", [["1/2", "1/2"], ["1/2", "1/2", 1, 7]], ids=["short", "long"])
def test_price_vector_of_the_wrong_length_is_rejected(market_class, module, prices):
    market = make_market([[1, 1, 0], [0, 0, 1]], market_class)
    x, p = make_allocation([[0, 1], [2]]), make_prices(prices)
    assert module.verify_equilibrium(market, x, make_prices(["1/2", "1/2", 1])).equilibrium
    calls = [lambda: module.verify_equilibrium(market, x, p), lambda: module.allocation_for_prices(market, p),
             lambda: check_clearing(market, x, p), lambda: check_budgets(market, x, p)]
    if module is additive:
        calls.append(lambda: additive.best_affordable_bundle(market, 0, p))
    for call in calls:
        with pytest.raises(ValueError, match=f"has {len(prices)} prices for 3 items"):
            call()


@given(st.lists(st.lists(st.integers(0, 5), min_size=3, max_size=3), min_size=1, max_size=3))
def test_additive_welfare_is_sum_of_utilities(rows):
    market = make_market(rows, "additive")
    x = make_allocation([[j] if j < market.m else [] for j in range(market.n)][: market.n])
    if check_feasible(market, x) is None:
        total = sum(bundle_utility(market, i, x.bundles[i]) for i in range(market.n))
        assert social_welfare(market, x) == total
