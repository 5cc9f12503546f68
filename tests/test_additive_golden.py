"""Golden differential test for both valuation classes.

Runs fixed strides of the reduction families of acceptance criterion 5 and
of the criterion-2 Leontief profile corpus, and pins a SHA-256 digest of
every output, serialized through `ceei.io` and `format_rational` so the
digest does not depend on the rational backend.  The three additive digests
were recorded on the Fraction-arithmetic implementation, the rest on the
implementation with separate Leontief and additive verifiers, price
recovery and assignment searches.  `setpacking->leontief` and
`corpus->leontief` were re-recorded when the price-support LP moved to
e = 1 + eps, which starts Bland's rule from another basis: only price
entries moved, to another optimal vertex, and every moved pair verifies.
`x3c->additive`, `setpacking->leontief` and `corpus->leontief` were
re-recorded when the price-support LP substituted its equality rows away
(unsold prices 0, one anchor item per bundle priced by the rest of it), so
the simplex starts at the origin with no phase 1: again only price vectors
moved (4, 101 and 955 of them), each to another optimal vertex, and every
moved pair verifies.
`corpus->oracle` runs both brute-force searches, which share only `lp` with
the solvers; it was recorded before the LP records checked themselves when
built.
Any change to an allocation, a price, a welfare, a verdict or a witness
changes the digests.
"""

import hashlib
import itertools
import json

import pytest

from ceei import additive, io, leontief, oracle
from ceei import reductions as rd
from ceei.core import make_prices

from conftest import additive_corpus, leontief_profile_corpus, multisets, x3c_family

# family -> (outputs checked, SHA-256 of the serialized outputs)
GOLDEN = {
    "x3c->additive": (148, "c5abb82ac94c6390e36718265a6809f2e2f509556f857b59717eac17aa5a6361"),
    "partition->additive": (167, "0f82225a69d5799e2b3800184df492a5d1bcea6aa87eaa3f65ed21a89168ef9d"),
    "subsetsum->verify": (201, "a8f753a7d51104774a0808feaffa257ba5b56fd96b260c8e5b5b76e7fd4adbc9"),
    "partition->leontief": (1001, "f7d2a48907e3c61549c98a5d83a1335a97df6e15374332d29fe4c5d39f6254f9"),
    "setpacking->leontief": (227, "25f563e4859b4b020fec3a1c79eb206003dbdb4f03923403a479517ded4f799c"),
    "corpus->leontief": (239, "130b703a03f46882f0a8242c0f3c1ed1af2b4daf901227ceebecf1e4e12b6d93"),
    "corpus->leontief-verify": (177, "ed9f214e27b7b1e790c40989e855c2d0a75d1e272e167867972f8c7c9d147064"),
    "subsetsum->alloc": (483, "dd96739e3129195059967867c4b8d097c06be78ff22d326fd6999e82c9639392"),
    "corpus->oracle": (722, "ab3fb99ff2a477a5a7b5e1ae9808a933eb4cfae372baab2274642e78299ae34f"),
}


def _x3c_searches():
    for inst in x3c_family()[::12]:
        market = rd.x3c_to_additive(inst)
        found = additive.search_equilibrium(market)
        if found is None:
            yield market, None
        else:
            x, p = found
            yield market, [io.allocation_to_obj(x), [io.format_rational(q) for q in p.prices]]


def _partition_allocations():
    cases = [values for values in multisets() if sum(values) % 2 == 0]
    for values in cases[::6]:
        market, prices = rd.partition_to_additive_prices(rd.PartitionInstance(values))
        found = additive.allocation_for_prices(market, prices)
        yield market, None if found is None else io.allocation_to_obj(found)


def _subsetsum_reports():
    cases = [rd.SubsetSumInstance(values, target)
             for values in multisets() for target in range(1, 10)]
    for inst in cases[::90]:
        market, x, p = rd.subsetsum_to_additive_verify(inst)
        report = additive.verify_equilibrium(market, x, p)
        violation = None if report.violation is None else io.violation_to_obj(report.violation)
        yield market, [report.equilibrium, violation]


def _prices(prices):
    return None if prices is None else [io.format_rational(q) for q in prices.prices]


def _solution(found):
    """(allocation, prices[, welfare]) or None, serialized."""
    if found is None:
        return None
    x, p, *welfare = found
    return [io.allocation_to_obj(x), _prices(p), *(io.format_rational(w) for w in welfare)]


def _partition_leontief_allocations():
    for values in list(multisets())[::2]:
        market, prices = rd.partition_to_leontief(rd.PartitionInstance(values))
        found = leontief.allocation_for_prices(market, prices)
        yield market, None if found is None else io.allocation_to_obj(found)


def _setpacking_optima():
    subsets = [frozenset(c) for size in (1, 2, 3) for c in itertools.combinations(range(1, 5), size)]
    cases = [sets for ns in (1, 2, 3) for sets in itertools.combinations_with_replacement(subsets, ns)]
    for sets in cases[::3]:
        market, _ = rd.setpacking_to_leontief(rd.SetPackingInstance(sets, 1))
        yield market, _solution(leontief.optimal_welfare_equilibrium(market))


def _corpus_stride(step):
    return [market for market, _ in leontief_profile_corpus()][::step]


def _leontief_corpus():
    """Both constructions, and price recovery for every allocation."""
    for market in _corpus_stride(17):
        constructed = leontief.compute_equilibrium(market)
        apx = leontief.compute_equilibrium_apx_welfare(market)
        recovered = [_prices(leontief.prices_for_allocation(market, x))
                     for x in oracle.enumerate_allocations(market)]
        yield market, [_solution(constructed), _solution(apx), recovered]


def _leontief_corpus_reports():
    """Verdicts for every allocation against a few price vectors."""
    for market in _corpus_stride(23):
        candidates = [found[1] for found in (leontief.compute_equilibrium(market),
                                             leontief.compute_equilibrium_apx_welfare(market))
                      if found is not None]
        candidates.append(make_prices(["1/2"] * market.m))
        reports = []
        for p in candidates:
            for x in oracle.enumerate_allocations(market):
                report = leontief.verify_equilibrium(market, x, p)
                violation = None if report.violation is None else io.violation_to_obj(report.violation)
                reports.append([report.equilibrium, violation])
        yield market, [[_prices(p) for p in candidates], reports]


def _subsetsum_prices():
    cases = [rd.SubsetSumInstance(values, target) for values in multisets()
             for target in range(max(values), min(9, sum(values)) + 1)]
    for inst in cases[::10]:
        market, x = rd.subsetsum_to_additive_allocation(inst)
        yield market, [io.allocation_to_obj(x), _prices(additive.prices_for_allocation(market, x))]


def _oracle_corpus():
    """Both brute-force searches on strides of the Leontief profile corpus
    and of the additive corpus: the oracle shares only `lp` with the
    solvers, so no other family pins its prices."""
    for market in [*_corpus_stride(11), *list(additive_corpus())[::13]]:
        yield market, [_solution(oracle.equilibrium_exists_bruteforce(market)),
                       _solution(oracle.max_welfare_equilibrium_bruteforce(market))]


FAMILIES = {
    "x3c->additive": _x3c_searches,
    "partition->additive": _partition_allocations,
    "subsetsum->verify": _subsetsum_reports,
    "partition->leontief": _partition_leontief_allocations,
    "setpacking->leontief": _setpacking_optima,
    "corpus->leontief": _leontief_corpus,
    "corpus->leontief-verify": _leontief_corpus_reports,
    "subsetsum->alloc": _subsetsum_prices,
    "corpus->oracle": _oracle_corpus,
}


def _digest(outputs):
    h = hashlib.sha256()
    count = 0
    for market, output in outputs:
        line = json.dumps([io.market_to_obj(market), output], separators=(",", ":"))
        h.update(line.encode() + b"\n")
        count += 1
    return count, h.hexdigest()


@pytest.mark.parametrize("family", [pytest.param(family, marks=pytest.mark.slow) if family == "corpus->oracle"
                                    else family for family in sorted(FAMILIES)])
def test_additive_outputs_match_golden_digest(family):
    assert _digest(FAMILIES[family]()) == GOLDEN[family]
