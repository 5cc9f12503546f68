"""Exact numbers and the rational string grammar are decided in `core`,
whichever entry point reads them; and the refusals no other test reaches."""

from fractions import Fraction

import pytest

from ceei import additive, io, leontief, lp, reductions
from ceei.core import (
    Market,
    PriceVector,
    make_allocation,
    make_market,
    make_prices,
    rational,
    social_welfare,
    validate_market,
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
        validate_market(Market(1, 1, (("1/2",),), "additive"))


@pytest.mark.parametrize("n, m", [(True, 1), (1.0, 1), (1, Id.B)], ids=["bool-buyers", "float-buyers", "enum-items"])
def test_a_directly_built_market_counts_buyers_and_items_in_ints(n, m):
    # unchecked, n = True is written as "buyers": true, which the JSON
    # reader refuses, and n = 1.0 fails later in `range`
    with pytest.raises(TypeError, match="not an integer"):
        validate_market(Market(n, m, ((1,),), "additive"))


def test_records_keep_no_reference_to_the_callers_lists():
    prices = [Fraction(1, 2)] * 2
    pv = PriceVector(prices)
    prices[0] = Fraction(-5)
    assert pv.prices == (Fraction(1, 2), Fraction(1, 2))
    assert hash(pv) == hash(PriceVector((Fraction(1, 2), Fraction(1, 2))))
    rows = [[1, 2], [3, 4]]
    market = validate_market(Market(2, 2, rows, "additive"))
    rows[0][0] = -7
    assert market.values == ((1, 2), (3, 4))
    assert market == make_market([[1, 2], [3, 4]], "additive")
    assert hash(market) == hash(make_market([[1, 2], [3, 4]], "additive"))


_LEONTIEF = make_market([[1, 0], [0, 1]], "leontief")
_TWO_BUYERS = make_market([[1, 1], [1, 1]], "additive")


def _hand_built(num_vars, nonneg, coeffs=((0, 1),)):
    return lp.LPProblem(num_vars, nonneg, (lp.LinearConstraint(coeffs, lp.LE, 1),), ())


@pytest.mark.parametrize("call, error, message", [
    (lambda: additive.best_affordable_bundle(_LEONTIEF, 0, make_prices([1, 1])), ValueError,
     "requires a perfect-substitutes market"),
    (lambda: make_market([[]], "additive"), ValueError, "at least one item"),
    (lambda: validate_market(Market(2, 1, ((1,),), "additive")), ValueError, "wrong number of rows"),
    (lambda: social_welfare(_TWO_BUYERS, make_allocation([[0]])), ValueError, "allocation is not feasible"),
    (lambda: io.solution_from_json('{"allocation": {"1": [1]}}'), ValueError,
     "allocation must be a list of item-index lists"),
    (lambda: io.solution_from_json('{"prices": "1/2"}'), ValueError, "prices must be a list"),
    (lambda: leontief.compute_equilibrium_prealloc(_LEONTIEF, 0, [2]), ValueError,
     "preallocated items out of range"),
    (lambda: leontief.compute_equilibrium_prealloc(_LEONTIEF, 2, []), ValueError, "excluded buyer out of range"),
    (lambda: lp.constraint({0: 1}, ">=", 1), ValueError, "unknown relation '>='"),
    (lambda: lp.solve_lp(_hand_built(0, ())), ValueError, "at least one variable"),
    (lambda: lp.solve_lp(_hand_built(2, (True,))), ValueError, "nonneg flags do not match"),
    (lambda: lp.solve_lp(_hand_built(1, (True,), ())), ValueError, "constraint without coefficients"),
    (lambda: reductions.subsetsum_to_additive_allocation(reductions.SubsetSumInstance((1, 5), 3)), ValueError,
     "every value at most the target"),
], ids=["additive-given-leontief", "no-items", "row-count", "bundle-count", "allocation-not-a-list",
        "prices-not-a-list", "prealloc-item-range", "prealloc-buyer-range", "unknown-relation", "no-variables",
        "flag-count", "empty-row", "subsetsum-value-above-target"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
