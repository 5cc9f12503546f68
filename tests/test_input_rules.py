"""Exact numbers and the rational string grammar are decided in `core`,
whichever entry point reads them; and the refusals no other test reaches."""

from fractions import Fraction

import pytest

from ceei import additive, io, leontief, lp, reductions
from ceei.core import (
    Allocation,
    Market,
    PriceVector,
    make_allocation,
    make_market,
    make_prices,
    rational,
    social_welfare,
)

from conftest import Id


@pytest.mark.parametrize("text", ["1.5", "1e3", "1_000", "+1", "1/-2", "1 /2", "0x1", "", "1/2/3"])
def test_decimal_and_python_literal_strings_are_refused_everywhere(text):
    # Fraction() alone reads the first four as 3/2, 1000, 1000 and 1; the
    # library refuses them as the JSON boundary does
    for read in (lambda: rational(text), lambda: rational(text, 3), lambda: make_market([[1, text]], "additive"),
                 lambda: make_prices([text]), lambda: lp.constraint({0: text}, lp.LE, 1),
                 lambda: lp.constraint({0: 1}, lp.LE, text), lambda: io.parse_rational(text)):
        with pytest.raises(ValueError, match="not an exact rational"):
            read()


def test_directly_built_records_refuse_a_rational_string():
    # unchecked, a string fails later, on "'<' not supported between 'str' and 'int'"
    with pytest.raises(TypeError, match=r"not an exact rational \(int or Fraction\): '1/2'"):
        PriceVector(("1/2",))
    with pytest.raises(TypeError, match=r"not an exact rational \(int or Fraction\): '1/2'"):
        Market(1, 1, (("1/2",),), "additive")


@pytest.mark.parametrize("n, m", [(True, 1), (1.0, 1), (1, Id.B)], ids=["bool-buyers", "float-buyers", "enum-items"])
def test_a_directly_built_market_counts_buyers_and_items_in_ints(n, m):
    # unchecked, n = True is written as "buyers": true, which the JSON
    # reader refuses, and n = 1.0 fails later in `range`
    with pytest.raises(TypeError, match="not an integer"):
        Market(n, m, ((1,),), "additive")


_ROW = lp.LinearConstraint(((0, 1),), lp.LE, 1)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Market(2, 2, ((1, -5), (2, 1)), "additive"), ValueError, "negative value at buyer 0, item 1"),
    (lambda: Market(2, 2, ((1, 1), (1,)), "additive"), ValueError, "value row 1 has wrong length"),
    (lambda: Market(3, 2, ((1, 1),), "leontief"), ValueError, "wrong number of rows"),
    (lambda: Market(1, 1, ((0.5,),), "additive"), TypeError, r"not an exact rational \(int or Fraction\): 0.5"),
    (lambda: Market(1, 1, ((1,),), "cobb-douglas"), ValueError, "unknown market class 'cobb-douglas'"),
    (lambda: lp.LinearConstraint(((0, 1),), ">=", 1), ValueError, "unknown relation '>='"),
    (lambda: lp.LinearConstraint((), lp.LE, 1), ValueError, "constraint without coefficients"),
    (lambda: lp.LinearConstraint(((0, 1),), lp.LE, 0.5), TypeError, r"not an exact rational \(int or Fraction\)"),
    (lambda: lp.LPProblem(2, (True, True), (_ROW,), ((True, 1),)), TypeError, "not a variable id: True"),
    (lambda: lp.LPProblem(1, (True,), (), ((0, 1), (0, 2))), ValueError, "objective repeats variable 0"),
    (lambda: lp.LPProblem(1, (True,), (lp.LinearConstraint(((1, 1),), lp.LE, 1),), ()), ValueError,
     "constraint references undeclared variable 1"),
    (lambda: lp.LPProblem(True, (True,), (_ROW,), ()), TypeError, "not a variable count: True"),
    (lambda: lp.LPProblem(1, (1,), (_ROW,), ()), TypeError, r"not a nonneg flag \(bool\): 1"),
    (lambda: lp.LinearConstraint([(0, 1, 2)], lp.LE, 1), TypeError,
     r"constraint term is not a \(variable id, coefficient\) pair: \(0, 1, 2\)"),
    (lambda: lp.LinearConstraint([0, 1], lp.LE, 1), TypeError,
     r"constraint term is not a \(variable id, coefficient\) pair: 0"),
    (lambda: lp.LPProblem(1, (True,), (), (0, 1)), TypeError,
     r"objective term is not a \(variable id, coefficient\) pair: 0"),
    (lambda: lp.LPProblem(1, (True,), (((0, 1),),), ()), TypeError, r"not a LinearConstraint: \(\(0, 1\),\)"),
], ids=["market-negative-value", "market-ragged-row", "market-wrong-n", "market-float", "market-unknown-class",
        "constraint-relation", "constraint-no-terms", "constraint-float-rhs", "problem-bool-id",
        "problem-repeated-id", "problem-id-out-of-range", "problem-bool-count", "problem-int-flag",
        "constraint-triple-term", "constraint-bare-term", "problem-bare-objective-term", "problem-bare-constraint"])
def test_records_refuse_invalid_fields_when_built(build, error, message):
    # unchecked, the negative value made `additive.search_equilibrium`
    # answer None and the missing rows made `leontief.compute_equilibrium`
    # answer None, while the float failed in `verify_equilibrium` on an
    # AttributeError; a constraint given as its bare terms failed on an
    # AttributeError and a term of three on "too many values to unpack"
    with pytest.raises(error, match=message):
        build()


def test_records_keep_no_reference_to_the_callers_lists():
    prices = [Fraction(1, 2)] * 2
    pv = PriceVector(prices)
    prices[0] = Fraction(-5)
    assert pv.prices == (Fraction(1, 2), Fraction(1, 2))
    assert hash(pv) == hash(PriceVector((Fraction(1, 2), Fraction(1, 2))))
    rows = [[1, 2], [3, 4]]
    market = Market(2, 2, rows, "additive")
    rows[0][0] = -7
    assert market.values == ((1, 2), (3, 4))
    assert market == make_market([[1, 2], [3, 4]], "additive")
    assert hash(market) == hash(make_market([[1, 2], [3, 4]], "additive"))
    # built from lists, Allocation and the LP records hash, and a later
    # append to a list changes no record
    bundles = [frozenset()]
    allocation = Allocation(bundles)
    bundles.append(frozenset({0}))
    assert allocation.bundles == (frozenset(),)
    assert hash(allocation) == hash(Allocation((frozenset(),)))
    coeffs = [(0, 1)]
    row = lp.LinearConstraint(coeffs, lp.LE, 1)
    coeffs.append((1, 1))
    assert row.coeffs == ((0, 1),)
    assert hash(row) == hash(lp.LinearConstraint(((0, 1),), lp.LE, 1))
    nonneg, constraints, objective = [True], [], []
    problem = lp.LPProblem(1, nonneg, constraints, objective)
    nonneg.append(False)
    constraints.append(row)
    objective.append((0, 1))
    assert (problem.nonneg, problem.constraints, problem.objective) == ((True,), (), ())
    assert hash(problem) == hash(lp.LPProblem(1, (True,), (), ()))


_LEONTIEF = make_market([[1, 0], [0, 1]], "leontief")
_TWO_BUYERS = make_market([[1, 1], [1, 1]], "additive")


def _hand_built(num_vars, nonneg, coeffs=((0, 1),)):
    return lp.LPProblem(num_vars, nonneg, (lp.LinearConstraint(coeffs, lp.LE, 1),), ())


@pytest.mark.parametrize("call, error, message", [
    (lambda: additive.best_affordable_bundle(_LEONTIEF, 0, make_prices([1, 1])), ValueError,
     "requires a perfect-substitutes market"),
    (lambda: make_market([[]], "additive"), ValueError, "at least one item"),
    (lambda: Market(2, 1, ((1,),), "additive"), ValueError, "wrong number of rows"),
    (lambda: social_welfare(_TWO_BUYERS, make_allocation([[0]])), ValueError, "allocation is not feasible"),
    (lambda: io.solution_from_json('{"allocation": {"1": [1]}}'), ValueError,
     "allocation must be a list of item-index lists"),
    (lambda: io.solution_from_json('{"prices": "1/2"}'), ValueError, "prices must be a list"),
    (lambda: leontief.compute_equilibrium_prealloc(_LEONTIEF, 0, [2]), ValueError,
     "preallocated items out of range"),
    (lambda: leontief.compute_equilibrium_prealloc(_LEONTIEF, 2, []), ValueError, "excluded buyer out of range"),
    (lambda: lp.constraint({0: 1}, ">=", 1), ValueError, "unknown relation '>='"),
    (lambda: _hand_built(0, ()), ValueError, "at least one variable"),
    (lambda: _hand_built(2, (True,)), ValueError, "nonneg flags do not match"),
    (lambda: _hand_built(1, (True,), ()), ValueError, "constraint without coefficients"),
    (lambda: reductions.subsetsum_to_additive_allocation(reductions.SubsetSumInstance((1, 5), 3)), ValueError,
     "every value at most the target"),
], ids=["additive-given-leontief", "no-items", "row-count", "bundle-count", "allocation-not-a-list",
        "prices-not-a-list", "prealloc-item-range", "prealloc-buyer-range", "unknown-relation", "no-variables",
        "flag-count", "empty-row", "subsetsum-value-above-target"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
