"""Golden differential test for the perfect-substitutes layer.

Runs a fixed stride of the additive reduction families of acceptance
criterion 5 and pins a SHA-256 digest of every output, serialized through
`ceei.io` and `format_rational` so the digest does not depend on the
rational backend.  The digests were recorded on the Fraction-arithmetic
implementation; any change to an allocation, a price, a verdict or a
witness changes them.
"""

import hashlib
import itertools
import json

import pytest

from ceei import additive, io
from ceei import reductions as rd

from conftest import multisets

# family -> (outputs checked, SHA-256 of the serialized outputs)
GOLDEN = {
    "x3c->additive": (148, "cb0e32abf4f1d071e95b7bdfbb03b71fcd3463c66fbce25f525f8a5a2c53cf01"),
    "partition->additive": (167, "0f82225a69d5799e2b3800184df492a5d1bcea6aa87eaa3f65ed21a89168ef9d"),
    "subsetsum->verify": (201, "a8f753a7d51104774a0808feaffa257ba5b56fd96b260c8e5b5b76e7fd4adbc9"),
}


def _x3c_searches():
    cases = []
    for cover_size in (1, 2):
        universe = 3 * cover_size
        triples = [frozenset(c) for c in itertools.combinations(range(1, universe + 1), 3)]
        for k in (1, 2, 3):
            for family in itertools.combinations_with_replacement(triples, k):
                cases.append(rd.X3CInstance(universe, family))
    for inst in cases[::12]:
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


FAMILIES = {
    "x3c->additive": _x3c_searches,
    "partition->additive": _partition_allocations,
    "subsetsum->verify": _subsetsum_reports,
}


def _digest(outputs):
    h = hashlib.sha256()
    count = 0
    for market, output in outputs:
        line = json.dumps([io.market_to_obj(market), output], separators=(",", ":"))
        h.update(line.encode() + b"\n")
        count += 1
    return count, h.hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_additive_outputs_match_golden_digest(family):
    assert _digest(FAMILIES[family]()) == GOLDEN[family]
