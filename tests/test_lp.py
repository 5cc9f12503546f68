import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ceei import additive, equilibrium, leontief, lp
from ceei.core import make_market, rational
from ceei.lp import EQ, INFEASIBLE, LE, OPTIMAL, UNBOUNDED, check_point, constraint, lp_problem, solve_lp

from conftest import Id, count_calls, example2_market, multisets
from ceei.leontief import price_support_lp
from ceei.core import ZERO, make_allocation
from ceei.reductions import SubsetSumInstance, subsetsum_to_additive_allocation


def test_slack_unconstrained_by_prices():
    # max eps s.t. p_1 = 1, eps <= 1
    problem = lp_problem(2, [constraint({0: 1}, EQ, 1), constraint({1: 1}, LE, 1)], {1: 1})
    result = solve_lp(problem)
    assert result.status == OPTIMAL
    assert result.value == 1


def test_binding_deviation_gives_zero_slack():
    # max eps s.t. p0+p1 = 1, p2 = 1, p0+p1 >= 1+eps, eps <= 1
    problem = lp_problem(4, [
        constraint({0: 1, 1: 1}, EQ, 1),
        constraint({2: 1}, EQ, 1),
        constraint({0: -1, 1: -1, 3: 1}, LE, -1),
        constraint({3: 1}, LE, 1),
    ], {3: 1})
    result = solve_lp(problem)
    assert result.status == OPTIMAL
    assert result.value == 0


def test_infeasible_system():
    problem = lp_problem(1, [constraint({0: 1}, LE, -1)], {0: 1})
    assert solve_lp(problem).status == INFEASIBLE


def test_unbounded_system():
    problem = lp_problem(1, [constraint({0: -1}, LE, 0)], {0: 1})
    assert solve_lp(problem).status == UNBOUNDED


def test_free_variable_goes_negative():
    problem = lp_problem(1, [constraint({0: -1}, LE, 3)], {0: -1}, nonneg=[False])
    result = solve_lp(problem)
    assert result.status == OPTIMAL
    assert result.point == (rational(-3),)
    assert result.value == 3


def test_malformed_problem_rejected():
    with pytest.raises(ValueError):
        constraint({}, LE, 1)
    with pytest.raises(ValueError):
        solve_lp(lp_problem(1, [constraint({3: 1}, LE, 1)], {0: 1}))
    # "x >= 1" while maximizing x is unbounded, not an equality at x = 1
    with pytest.raises(ValueError, match="unknown relation"):
        lp.LinearConstraint(((0, rational(1)),), ">=", rational(1))


def test_check_point_exact():
    problem = lp_problem(1, [constraint({0: 1}, EQ, 1)], {0: 1})
    assert check_point(problem, [rational(1)])
    assert not check_point(problem, [rational(1, 2)])
    with pytest.raises(ValueError):
        check_point(problem, [rational(1), rational(1)])


def test_check_point_on_worked_price_system():
    # The price-recovery system for the worked 6-buyer example admits its
    # published prices with the slack at its cap: e = 1 + eps = 2.  Each
    # bundle's highest item is substituted away and no item is unsold, so
    # the variables are the free items 5 and 6, then e.
    market = example2_market()
    x = make_allocation([[0], [1], [2], [3], [4], [5, 6, 7]])
    system = price_support_lp(market, x)
    assert system.num_vars == 3
    point = [rational(q) for q in ("1/3", "1/3", 2)]
    assert check_point(system, point)
    result = solve_lp(system)
    assert result.status == OPTIMAL
    assert result.value == 2


SUPPORT_CASES = [
    (leontief.price_support_lp, example2_market(), make_allocation([[0], [1], [2], [3], [4], [5, 6, 7]])),
    (leontief.price_support_lp, example2_market(), make_allocation([[0], [1], [2], [3], [4, 5], [6]])),
    (additive.price_support_lp, make_market([list(range(1, 9)), list(range(8, 0, -1))], "additive"),
     make_allocation([list(range(4, 8)), list(range(4))])),
    (additive.price_support_lp, make_market([[1, "1/2", 3, 0], ["2/3", 1, 1, 1]], "additive"),
     make_allocation([[0, 1], [3]])),
]
SUPPORT_IDS = ["leontief", "leontief-unsold", "additive", "additive-unsold"]


@pytest.mark.parametrize("build, market, x", SUPPORT_CASES, ids=SUPPORT_IDS)
def test_price_support_deviator_rows_are_feasible_at_zero(build, market, x):
    # Every row is "<=" with a right-hand side of 0 or more, so the origin
    # satisfies it, its slack starts basic and `solve_lp` builds no
    # artificial; the deviator rows carry e, the sign rows do not, and the
    # cap e <= 2 comes last.
    system = build(market, x)
    e = system.num_vars - 1
    assert all(con.relation == LE and con.rhs >= 0 for con in system.constraints)
    assert check_point(system, [0] * system.num_vars)
    assert system.constraints[-1] == constraint({e: 1}, LE, 2)
    deviator_rows = [con for con in system.constraints[:-1] if dict(con.coeffs).get(e)]
    assert deviator_rows
    assert all(dict(con.coeffs)[e] == 1 for con in deviator_rows)
    sign_rows = [con for con in system.constraints[:-1] if e not in dict(con.coeffs)]
    assert all(con.rhs == 1 and {c for _, c in con.coeffs} == {1} for con in sign_rows)


@pytest.mark.parametrize("build, market, x", SUPPORT_CASES, ids=SUPPORT_IDS)
def test_price_support_rows_hold_ints(build, market, x):
    # Every row is built as its sorted (var, +-1) tuple with an int rhs of 0
    # or more, and equals the row `constraint` builds from Fractions.  The
    # unsold items and one anchor per bundle have no variable.
    system = build(market, x)
    unsold = frozenset(range(market.m)).difference(*x.bundles)
    e = market.m - len(unsold) - market.n
    assert system.num_vars == e + 1
    for con in system.constraints:
        assert con.relation == LE
        assert all(type(v) is int and type(c) is int and c in (1, -1) for v, c in con.coeffs)
        assert type(con.rhs) is int and con.rhs >= 0
        rebuilt = constraint({v: Fraction(c) for v, c in con.coeffs}, con.relation, Fraction(con.rhs))
        assert con == rebuilt
        assert [v for v, _ in con.coeffs] == sorted({v for v, _ in con.coeffs})
    assert system.objective == ((e, 1),) and type(system.objective[0][1]) is int
    assert system.constraints[-1] == constraint({e: Fraction(1)}, LE, Fraction(2))


@pytest.mark.parametrize("module", [leontief, additive], ids=["leontief", "additive"])
def test_price_support_refuses_an_infeasible_allocation(module):
    # Item index 2 equals m, the variable e; the system would price it.
    market = make_market([[1, 0], [0, 1]], module.__name__.rsplit(".", 1)[-1])
    x = make_allocation([[0, 2], [1]])
    with pytest.raises(ValueError, match="allocation is not feasible"):
        module.price_support_lp(market, x)
    assert module.prices_for_allocation(market, x) is None


@pytest.mark.parametrize("module, market, x", [
    (leontief, example2_market(), make_allocation([[0], [1], [2], [3], [4], [5, 6, 7]])),
    (additive, make_market([list(range(1, 9)), list(range(8, 0, -1))], "additive"),
     make_allocation([list(range(3, 8)), list(range(3))])),
], ids=["leontief", "additive"])
def test_price_recovery_checks_feasibility_once_and_runs_no_phase_1(monkeypatch, module, market, x):
    # The recovery builds its LP from the bundle masks it already has, and
    # the LP's origin is feasible, so the simplex runs once: phase 2.
    calls = []
    check, run = equilibrium.check_feasible, lp._Tableau.run
    monkeypatch.setattr(equilibrium, "check_feasible", lambda *args: calls.append("check") or check(*args))
    monkeypatch.setattr(lp._Tableau, "run", lambda *args: calls.append("run") or run(*args))
    prices = module.prices_for_allocation(market, x)
    assert calls == ["check", "run"]
    assert prices is not None and module.verify_equilibrium(market, x, prices).equilibrium


def _reference_support_system(market, x, deviators):
    """The price-support system with equality rows, built through
    `constraint` from each buyer's deviators given as frozensets: prices
    0..m-1 and e = m, unsold items pinned to 0, every bundle costing 1,
    every deviator at least e, and e <= 2."""
    e = market.m
    unsold = frozenset(range(e)).difference(*x.bundles)
    rows = [constraint({j: 1}, EQ, 0) for j in sorted(unsold)]
    for bundle, listed in zip(x.bundles, deviators):
        rows.append(constraint({j: 1 for j in bundle}, EQ, 1))
        rows.extend(constraint({**{j: -1 for j in d}, e: 1}, LE, 0) for d in listed)
    rows.append(constraint({e: 1}, LE, 2))
    return lp_problem(e + 1, rows, {e: 1})


def _reference_substituted_system(market, x, deviators):
    """The system of `_reference_support_system` with every equality row
    substituted away, through `constraint`: unsold prices are 0, each
    bundle's highest item is priced 1 minus the rest of its bundle, which
    must then cost at most 1, and the other sold items are the variables,
    in item order, then e.  A deviator's cost p(D) is read term by term."""
    rest = {max(bundle): bundle - {max(bundle)} for bundle in x.bundles}
    free = sorted(frozenset().union(*x.bundles) - rest.keys())
    var = {j: v for v, j in enumerate(free)}
    e = len(free)
    rows = []
    for bundle, listed in zip(x.bundles, deviators):
        if rest[max(bundle)]:
            rows.append(constraint({var[j]: 1 for j in rest[max(bundle)]}, LE, 1))
        for d in listed:
            coeffs = dict.fromkeys(range(e + 1), 0)
            coeffs[e] = 1  # e - p(D) <= 0, with p(D)'s constant moved right
            for j in d:
                if j in var:
                    coeffs[var[j]] -= 1
                for k in rest.get(j, ()):
                    coeffs[var[k]] += 1
            rows.append(constraint(coeffs, LE, len(d & rest.keys())))
    rows.append(constraint({e: 1}, LE, 2))
    return lp_problem(e + 1, rows, {e: 1})


def _leontief_deviators(market, x):
    """By definition: a buyer missing part of its demand set deviates to it."""
    demands = [frozenset(j for j, v in enumerate(row) if v > 0) for row in market.values]
    return [[] if d <= b else [d] for d, b in zip(demands, x.bundles)]


def _additive_deviators(market, x):
    """By definition: the bundles worth strictly more than the buyer's own
    with no strictly better proper subset, by size, then by binary mask."""
    m = market.m
    masks = sorted(range(1 << m), key=lambda mask: (mask.bit_count(), mask))
    subsets = [frozenset(j for j in range(m) if mask >> j & 1) for mask in masks]
    out = []
    for row, bundle in zip(market.values, x.bundles):
        own = sum(row[j] for j in bundle)
        better = [s for s in subsets if sum(row[j] for j in s) > own]
        out.append([s for s in better if not any(t < s for t in better)])
    return out


def _every_allocation_with_no_empty_bundle(market):
    for owners in itertools.product(range(market.n + 1), repeat=market.m):
        bundles = [frozenset(j for j, o in enumerate(owners) if o == i) for i in range(market.n)]
        if all(bundles):
            yield make_allocation(bundles)


def _support_corpus():
    for m in range(1, 5):  # Leontief: every unit demand profile of one or two buyers
        subsets = [[1 if mask >> j & 1 else 0 for j in range(m)] for mask in range(1, 1 << m)]
        for n in (1, 2):
            for rows in itertools.product(subsets, repeat=n):
                yield leontief, make_market(rows, "leontief"), _leontief_deviators
    for m in range(1, 5):  # additive: every row of one buyer, and pairs of rows
        rows = list(itertools.product([0, 1, 2, "1/2"], repeat=m))
        for row in rows:
            yield additive, make_market([row], "additive"), _additive_deviators
        for pair in list(itertools.product(rows, repeat=2))[::(1, 1, 13, 1499)[m - 1]]:
            yield additive, make_market(pair, "additive"), _additive_deviators


def test_price_support_systems_match_the_frozenset_definition():
    # Deviators travel as item masks from the walk to the rows; every system
    # must equal the substituted one built from the deviators as frozensets,
    # and have the optimum of the system with equality rows, so the same
    # verdict.
    systems = 0
    for module, market, deviators in _support_corpus():
        for x in _every_allocation_with_no_empty_bundle(market):
            listed = deviators(market, x)
            expected = _reference_substituted_system(market, x, listed)
            assert module.price_support_lp(market, x) == expected, (market, x)
            substituted, equality_rows = solve_lp(expected), solve_lp(_reference_support_system(market, x, listed))
            assert substituted.status == equality_rows.status == OPTIMAL
            assert substituted.value == equality_rows.value, (market, x)
            systems += 1
    assert systems == 22_984


def _subsetsum_alloc_cases():
    """Every subset-sum->alloc gadget, with its allocation."""
    for values in multisets():
        for target in range(max(values), min(9, sum(values)) + 1):
            market, x = subsetsum_to_additive_allocation(SubsetSumInstance(values, target))
            yield additive.price_support_lp, market, x


def _at_origin(rows, objective):
    """`lp._solve_rows` at the slack basis (no equality row) on copies of
    the rows, as (status, point, value)."""
    status, scaled, den = lp._solve_rows([list(row) for row in rows], None, objective)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    total = sum(c * x for c, x in zip(objective, scaled))
    return OPTIMAL, tuple(rational(x, den) if x else ZERO for x in scaled), rational(total, den)


def test_support_rows_enter_the_simplex_as_solve_lp_builds_them(monkeypatch):
    # The dense rows price recovery hands the simplex are the int rows
    # `solve_lp`'s own set-up makes from the public system, and entering at
    # the slack basis reaches `solve_lp`'s status, point and value.
    built, systems = [], []
    support_system, tableau = equilibrium._support_system, lp._Tableau

    class Recorded(tableau):
        def __init__(self, rows, basis, var, den):
            built.append([list(row) for row in rows])
            super().__init__(rows, basis, var, den)

    def recorded(*args):
        rows, free = support_system(*args)
        systems.append(([list(row) for row in rows], len(free)))
        return rows, free

    monkeypatch.setattr(lp, "_Tableau", Recorded)
    monkeypatch.setattr(equilibrium, "_support_system", recorded)
    cases = [*SUPPORT_CASES, *_subsetsum_alloc_cases()]
    for build, market, x in cases:
        built.clear()
        systems.clear()
        problem = build(market, x)
        result = solve_lp(problem)
        (rows, e), = systems
        assert built == [rows], (market, x)
        assert _at_origin(rows, [0] * e + [1]) == (result.status, result.point, result.value), (market, x)
    assert len(cases) == 4 + 4_828


def test_redundant_equalities_are_dropped():
    # the dependent row leaves a zero-valued artificial in the basis after
    # phase 1; it must be pivoted out or discarded, not poison phase 2
    problem = lp_problem(2, [constraint({0: 1, 1: 1}, EQ, 2),
                             constraint({0: 2, 1: 2}, EQ, 4)], {0: 1})
    result = solve_lp(problem)
    assert result.status == OPTIMAL
    assert result.value == 2
    assert check_point(problem, result.point)


def test_inconsistent_equalities_are_infeasible():
    problem = lp_problem(2, [constraint({0: 1, 1: 1}, EQ, 2),
                             constraint({0: 2, 1: 2}, EQ, 5)], {0: 1})
    assert solve_lp(problem).status == INFEASIBLE


def test_deterministic_for_fixed_encoding():
    problem = lp_problem(3, [
        constraint({0: 1, 1: 2}, LE, 4),
        constraint({1: 1, 2: 1}, EQ, 2),
        constraint({0: 3, 2: -1}, LE, 5),
    ], {0: 1, 1: 1, 2: 1})
    first = solve_lp(problem)
    for _ in range(3):
        again = solve_lp(problem)
        assert (again.status, again.point, again.value) == (first.status, first.point, first.value)


def _solve_square(rows, rhs):
    """Exact Gaussian elimination; None when singular."""
    n = len(rhs)
    a = [list(map(rational, row)) + [rational(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _vertex_oracle(problem):
    """Best objective value over all basic feasible points of a bounded
    problem, found by brute-force intersection of constraint hyperplanes.
    Independent of the simplex path."""
    n = problem.num_vars
    planes = []
    for con in problem.constraints:
        row = [rational(0)] * n
        for var, coeff in con.coeffs:
            row[var] += coeff
        planes.append((row, con.rhs))
    for i in range(n):  # nonnegativity boundaries
        if problem.nonneg[i]:
            row = [rational(0)] * n
            row[i] = rational(1)
            planes.append((row, rational(0)))
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        point = _solve_square([planes[i][0] for i in combo], [planes[i][1] for i in combo])
        if point is None or not check_point(problem, point):
            continue
        value = sum((c * point[v] for v, c in problem.objective), rational(0))
        if best is None or value > best:
            best = value
    return best


coeff = st.integers(-3, 3) | st.builds(rational, st.integers(-6, 6), st.integers(2, 4))
rhs = st.integers(-6, 6) | st.builds(rational, st.integers(-12, 12), st.integers(2, 4))


@st.composite
def bounded_problems(draw):
    n = draw(st.integers(1, 3))
    flags = [draw(st.booleans()) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        coeffs = {i: draw(coeff) for i in range(n)}
        if all(c == 0 for c in coeffs.values()):
            coeffs[0] = 1
        rel = draw(st.sampled_from([LE, EQ]))
        rows.append(constraint(coeffs, rel, draw(rhs)))
    for i in range(n):  # box keeps the region bounded, below too for free vars
        rows.append(constraint({i: 1}, LE, 4))
        if not flags[i]:
            rows.append(constraint({i: -1}, LE, 4))
    objective = {i: draw(coeff) for i in range(n)}
    return lp_problem(n, rows, objective, nonneg=flags)


@settings(max_examples=150, deadline=None)
@given(bounded_problems())
def test_optimum_matches_vertex_enumeration(problem):
    result = solve_lp(problem)
    oracle_best = _vertex_oracle(problem)
    if oracle_best is None:
        assert result.status == INFEASIBLE
    else:
        assert result.status == OPTIMAL
        assert result.value == oracle_best
        assert check_point(problem, result.point)


GRID_SYSTEMS = [
    # (problem, optimum) with every relevant vertex on the 1/12 lattice
    (lp_problem(2, [constraint({0: 2, 1: 1}, LE, 3), constraint({0: 1, 1: 2}, LE, 3),
                    constraint({0: 1}, LE, 3), constraint({1: 1}, LE, 3)], {0: 1, 1: 1}),
     rational(2)),
    (lp_problem(1, [constraint({0: 12}, LE, 7)], {0: 1}), rational(7, 12)),
    (lp_problem(3, [constraint({0: 1, 1: 1, 2: 1}, EQ, 1), constraint({2: 2}, LE, 1)],
                {0: 1, 1: 2, 2: 3}),
     rational(5, 2)),
    # 4x + 3y <= 6 and 4x + 9y <= 12 written with p/q entries; the vertices
    # are (0, 0), (3/2, 0), (0, 4/3) and (3/4, 1), and x + y peaks at the last
    (lp_problem(2, [constraint({0: rational(2, 3), 1: rational(1, 2)}, LE, 1),
                    constraint({0: rational(1, 6), 1: rational(3, 8)}, LE, rational(1, 2))],
                {0: 1, 1: 1}),
     rational(7, 4)),
]


@pytest.mark.parametrize("problem,expected", GRID_SYSTEMS)
def test_optimum_matches_twelfths_grid_search(problem, expected):
    result = solve_lp(problem)
    assert result.status == OPTIMAL and result.value == expected
    step = rational(1, 12)
    top = 37  # covers [0, 3] in twelfths
    grid_best = None
    for combo in itertools.product(range(top), repeat=problem.num_vars):
        point = [k * step for k in combo]
        if check_point(problem, point):
            value = sum((c * point[v] for v, c in problem.objective), rational(0))
            if grid_best is None or value > grid_best:
                grid_best = value
    assert grid_best == result.value


def _corpus():
    return json.loads((Path(__file__).parent / "data" / "lp_corpus.json").read_text())["systems"]


def test_frozen_price_support_corpus():
    """`solve_lp` answers every system of a frozen corpus of price-support
    systems (see its "what" field) with the recorded status, value and
    point, so a change to the LP kernel that moves any answer shows up."""
    corpus = _corpus()
    for case in corpus:
        rows = [constraint(dict(coeffs), relation, rhs) for coeffs, relation, rhs in case["rows"]]
        _assert_recorded(solve_lp(lp_problem(case["vars"], rows, dict(case["objective"]))), case)
    assert len(corpus) == 281


def test_frozen_corpus_pivot_count(monkeypatch):
    """The corpus's points and values pin the answers; the pivot count pins
    the path to them, so a change to Bland's entering or leaving choice, or
    to the drive-out, shows up even where it lands on the same vertex."""
    pivots = count_calls(monkeypatch, lp._Tableau, "pivot")
    for case in _corpus():
        rows = [constraint(dict(coeffs), relation, rhs) for coeffs, relation, rhs in case["rows"]]
        solve_lp(lp_problem(case["vars"], rows, dict(case["objective"])))
    assert len(pivots) == 3_711


def _corpus_problem(case, number):
    """The case's system with every number passed through `number`."""
    rows = [constraint({v: number(c) for v, c in coeffs}, relation, number(rhs))
            for coeffs, relation, rhs in case["rows"]]
    return lp_problem(case["vars"], rows, {v: number(c) for v, c in case["objective"]})


def _assert_recorded(result, case):
    assert result.status == case["status"], case
    if result.status == OPTIMAL:
        assert result.value == rational(case["value"]), case
        assert result.point == tuple(rational(v) for v in case["point"]), case
        assert all(type(x) is Fraction for x in (result.value, *result.point)), case


def test_corpus_answers_match_from_int_and_fraction_coefficients():
    # Int coefficients stay Python ints in the problem, Fraction ones stay
    # Fractions, and both must give the recorded answer, as rationals.
    for case in _corpus():
        ints = _corpus_problem(case, int)
        fractions = _corpus_problem(case, Fraction)
        assert ints == fractions
        numbers = [c for con in ints.constraints for _, c in con.coeffs] + [con.rhs for con in ints.constraints]
        assert {type(x) for x in numbers} == {int}
        assert {type(c) for con in fractions.constraints for _, c in con.coeffs} == {Fraction}
        _assert_recorded(solve_lp(ints), case)
        _assert_recorded(solve_lp(fractions), case)


small = st.integers(-3, 3)
share = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))  # some are whole Fractions


@st.composite
def mixed_problems(draw):
    """Problems whose coefficients and right-hand sides are ints or
    Fractions, with free variables and negative right-hand sides, unbounded
    and infeasible ones included."""
    n = draw(st.integers(1, 3))
    flags = [draw(st.booleans()) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = {i: draw(small | share) for i in range(n)}
        if all(c == 0 for c in coeffs.values()):
            coeffs[0] = 1
        rows.append(constraint(coeffs, draw(st.sampled_from([LE, EQ])), draw(st.integers(-6, 6) | share)))
    return lp_problem(n, rows, {i: draw(small | share) for i in range(n)}, nonneg=flags)


def _all_fractions(problem):
    rows = [constraint({v: Fraction(c) for v, c in con.coeffs}, con.relation, Fraction(con.rhs))
            for con in problem.constraints]
    objective = {v: Fraction(c) for v, c in problem.objective}
    return lp_problem(problem.num_vars, rows, objective, nonneg=problem.nonneg)


def _typed(result):
    numbers = (*(result.point or ()), result.value)
    return result.status, [(type(x), x) for x in numbers]


@settings(max_examples=300, deadline=None)
@given(mixed_problems())
def test_int_rows_and_their_fraction_twins_solve_identically(problem):
    # Int rows skip the LCM scaling; the answer, types included, must be
    # the one the all-Fraction twin gets.
    twin = _all_fractions(problem)
    assert {type(c) for con in twin.constraints for _, c in con.coeffs} == {Fraction}
    result = solve_lp(problem)
    assert _typed(result) == _typed(solve_lp(twin))
    if result.status == OPTIMAL:
        assert check_point(problem, result.point)
        assert all(type(x) is Fraction for x in (*result.point, result.value))


@st.composite
def origin_systems(draw):
    """`<=` rows of ints with right-hand sides of 0 or more, so the origin
    is feasible, and an int objective; unbounded systems are included."""
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = [draw(small) for _ in range(n)]
        if not any(row):
            row[0] = 1
        rows.append(row + [draw(st.integers(0, 6))])
    return rows, [draw(small) for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(origin_systems())
def test_solve_at_origin_matches_solve_lp(system):
    rows, objective = system
    cons = [constraint(dict(enumerate(row[:-1])), LE, row[-1]) for row in rows]
    result = solve_lp(lp_problem(len(objective), cons, dict(enumerate(objective))))
    assert _at_origin(rows, objective) == (result.status, result.point, result.value)


def _row_problem(coeffs, rhs, objective=((0, 1),)):
    """A one-variable problem built directly, past `constraint` and `lp_problem`."""
    return lp.LPProblem(1, (True,), (lp.LinearConstraint(coeffs, LE, rhs),), objective)


@pytest.mark.parametrize("build, message", [
    (lambda: constraint({0: 0.5}, LE, 1), "not an exact rational"),
    (lambda: constraint({0: 1}, LE, 0.5), "not an exact rational"),
    (lambda: constraint({0: True}, LE, 1), "not an exact rational"),
    (lambda: constraint({0: 1}, LE, True), "not an exact rational"),
    (lambda: lp_problem(1, [constraint({0: 1}, LE, 1)], {0: 1.0}), "not an exact rational"),
    # int(v) would read each of these ids as variable 1
    (lambda: constraint({1.5: 1}, LE, 1), "not a variable id: 1.5"),
    (lambda: lp_problem(2, [constraint({0: 1}, LE, 1)], {1.0: 1}), "not a variable id: 1.0"),
    (lambda: constraint({True: 1}, LE, 1), "not a variable id: True"),
    (lambda: constraint({Id.B: 1}, LE, 1), "not a variable id: <Id.B: 1>"),
    # rows built directly, past `constraint`, where a bool would read as 1
    # and a "p/q" string was never made a rational
    (lambda: _row_problem(((0, 0.5),), 1), "not an exact rational"),
    (lambda: _row_problem(((0, 1),), 0.5), "not an exact rational"),
    (lambda: _row_problem(((0, True),), 1), "not an exact rational"),
    (lambda: _row_problem(((0, 1),), True), "not an exact rational"),
    (lambda: _row_problem(((0, "1/2"),), 1), "not an exact rational"),
    (lambda: _row_problem(((0, 1),), "1/2"), "not an exact rational"),
    # an objective built directly, past `lp_problem`
    (lambda: _row_problem(((0, 1),), 1, ((0, 0.5),)), "not an exact rational"),
    (lambda: _row_problem(((0, 1),), 1, ((0, True),)), "not an exact rational"),
    (lambda: _row_problem(((0, 1),), 1, ((0, "1/2"),)), "not an exact rational"),
], ids=["float-coeff", "float-rhs", "bool-coeff", "bool-rhs", "float-objective",
        "float-var", "float-objective-var", "bool-var", "int-enum-var",
        "solve-float-coeff", "solve-float-rhs", "solve-bool-coeff", "solve-bool-rhs",
        "solve-str-coeff", "solve-str-rhs",
        "solve-float-objective", "solve-bool-objective", "solve-str-objective"])
def test_constraint_rejects_floats_and_bools(build, message):
    # A problem is refused when it is built, directly or not, so neither
    # `solve_lp` nor `check_point` answers in float, bool or string
    # arithmetic.
    with pytest.raises(TypeError, match=message):
        build()


def _hand_built(coeffs=((0, 1),), objective=((1, 1),), num_vars=2, nonneg=(True, True)):
    """A problem built directly, past `constraint` and `lp_problem`."""
    return lp.LPProblem(num_vars, nonneg, (lp.LinearConstraint(coeffs, LE, 1),), objective)


@pytest.mark.parametrize("fields, error, message", [
    ({"objective": ((True, 1),)}, TypeError, "not a variable id: True"),
    ({"coeffs": ((True, 1),)}, TypeError, "not a variable id: True"),
    ({"coeffs": ((1.0, 1),)}, TypeError, "not a variable id: 1.0"),
    ({"objective": ((Fraction(1), 1),)}, TypeError, "not a variable id: Fraction"),
    ({"coeffs": ((0, 1), (0, 1))}, ValueError, "constraint repeats variable 0"),
    ({"objective": ((1, 1), (0, 1), (1, -1))}, ValueError, "objective repeats variable 1"),
    # a bool count would be solved as one variable, a float count fail
    # in `range`, a flag 0 make x0 free and a flag "no" keep it nonnegative
    ({"objective": ((0, 1),), "num_vars": True, "nonneg": (True,)}, TypeError, "not a variable count: True"),
    ({"num_vars": 2.0}, TypeError, "not a variable count: 2.0"),
    ({"objective": ((0, -1),), "nonneg": (0, True)}, TypeError, r"not a nonneg flag \(bool\): 0"),
    ({"nonneg": ("no", True)}, TypeError, r"not a nonneg flag \(bool\): 'no'"),
], ids=["bool-objective-var", "bool-var", "float-var", "fraction-objective-var", "repeated-var",
        "repeated-objective-var", "bool-count", "float-count", "int-flag", "str-flag"])
def test_hand_built_problem_refuses_bad_variable_ids(fields, error, message):
    # A bool id would read as variable 1, and a repeated id would be summed:
    # the row ((0, 1), (0, 1)) as 2 x0.
    with pytest.raises(error, match=message):
        _hand_built(**fields)


def _reference_terms(coeffs):
    """`lp._terms` by its definition: each id checked, then its coefficient,
    in the mapping's order; ints kept, Fractions and "p/q" strings made
    reduced Fractions, zeros dropped, the rest sorted by id."""
    terms = []
    for v, c in coeffs.items():
        if type(v) is not int:
            raise TypeError(f"not a variable id: {v!r}")
        if type(c) is not int:
            if type(c) not in (Fraction, str):
                raise TypeError(f"not an exact rational: {c!r}")
            c = Fraction(c)
        if c != 0:
            terms.append((v, c))
    return tuple(sorted(terms, key=lambda term: term[0]))


term_ids = st.integers(0, 9) | st.sampled_from([True, False, 1.0, 2.5])
term_coefficients = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.builds("{}/{}".format, st.integers(-6, 6), st.integers(1, 4)),  # "0/3" among them
    st.sampled_from([True, False, 0.0, 0.5]),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(term_ids, term_coefficients, max_size=6))
@example({5: 0, 3: Fraction(0), 1: "0/3", 4: Fraction(2, 4), 0: "6/4", 2: -1})
def test_constraint_keeps_ints_and_coerces_the_rest(coeffs):
    con = constraint({1: 2, 0: "1/2", 2: 0}, EQ, 3)
    assert con.coeffs == ((0, rational(1, 2)), (1, 2))
    assert [type(c) for _, c in con.coeffs] == [Fraction, int]
    assert type(con.rhs) is int
    assert con == constraint({0: rational(1, 2), 1: rational(2)}, EQ, rational(3))
    # Generated mappings, ids in any order: the built terms, types included,
    # or the refusal with its message, are the reference's.
    try:
        expected = _reference_terms(coeffs)
    except TypeError as refusal:
        with pytest.raises(TypeError) as raised:
            lp._terms(coeffs)
        assert str(raised.value) == str(refusal)
        return
    terms = lp._terms(coeffs)
    assert [(v, type(c), c) for v, c in terms] == [(v, type(c), c) for v, c in expected]
    if expected:
        assert constraint(coeffs, LE, 0).coeffs == terms
        assert lp_problem(10, [], coeffs).objective == terms


def test_pivot_keeps_the_equations_through_a_negative_pivot():
    # x0 + 2 x1 + x2 = 4 and 3 x0 - x1 + x3 = 5, basic x2 and x3, over den 1;
    # the first pivot entry is negative, so row 1 is negated first
    tab = lp._Tableau([[1, 2, 4], [3, -1, 5]], basis=[2, 3], var=[0, 1], den=1)
    tab.pivot(1, 1)
    tab.pivot(0, 0)
    assert sorted(tab.basis) == [0, 1]
    for x0, x1 in [(0, 0), (1, 2), (-3, 5)]:
        x = {0: x0, 1: x1, 2: 4 - x0 - 2 * x1, 3: 5 - 3 * x0 + x1}
        for row, b in zip(tab.rows, tab.basis):
            assert tab.den * x[b] + sum(a * x[v] for a, v in zip(row, tab.var)) == row[-1]
