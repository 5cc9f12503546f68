"""Exact rational linear programming.

Two-phase primal simplex with Bland's (least-index) pivoting rule, which
guarantees termination on every input.  Inputs and outputs are exact
rationals; inside, each row is scaled to integers and the tableau is held
fraction-free (Python ints over one common denominator, updated by
Edmonds/Bareiss integer-preserving elimination), so no rational arithmetic
runs in the pivot loop.  Intended for the small systems this package builds
(tens of variables and constraints), not for large-scale LP.

Strict inequalities never appear in a problem; callers that need "p(B) > 1"
encode it as "p(B) >= 1 + eps" with eps a distinguished maximized variable
and treat the system as strictly satisfiable iff the optimum eps is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .core import ZERO, RationalLike, integer_row, rational

LE = "<="
EQ = "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearConstraint:
    """`sum(coeff * var) relation rhs` with relation one of LE, EQ.

    `coeffs` is a tuple of (variable id, coefficient) pairs sorted by id,
    with at least one nonzero coefficient.
    """

    coeffs: tuple
    relation: str
    rhs: object


@dataclass(frozen=True)
class LPProblem:
    """Maximize a linear objective subject to LinearConstraints.

    `nonneg[i]` marks variable i as restricted to >= 0; other variables are
    free.  `objective` is a tuple of (variable id, coefficient) pairs.
    """

    num_vars: int
    nonneg: tuple
    constraints: tuple
    objective: tuple


@dataclass(frozen=True)
class LPResult:
    status: str
    point: Optional[tuple] = None
    value: Optional[object] = None


def _terms(coeffs: Mapping[int, RationalLike]) -> tuple:
    terms = ((int(v), rational(c)) for v, c in coeffs.items())
    return tuple(sorted(term for term in terms if term[1] != 0))


def constraint(coeffs: Mapping[int, RationalLike], relation: str, rhs: RationalLike) -> LinearConstraint:
    if relation not in (LE, EQ):
        raise ValueError(f"unknown relation {relation!r}")
    items = _terms(coeffs)
    if not items:
        raise ValueError("constraint needs at least one nonzero coefficient")
    return LinearConstraint(items, relation, rational(rhs))


def lp_problem(
    num_vars: int,
    constraints: Sequence[LinearConstraint],
    objective: Mapping[int, RationalLike],
    nonneg: Optional[Sequence[bool]] = None,
) -> LPProblem:
    flags = tuple(nonneg) if nonneg is not None else (True,) * num_vars
    obj = _terms(objective)
    return LPProblem(num_vars=num_vars, nonneg=flags, constraints=tuple(constraints), objective=obj)


def _validate(problem: LPProblem) -> None:
    if problem.num_vars < 1:
        raise ValueError("problem needs at least one variable")
    if len(problem.nonneg) != problem.num_vars:
        raise ValueError("nonneg flags do not match variable count")
    for con in problem.constraints:
        if not con.coeffs:
            raise ValueError("constraint without coefficients")
        for var, _ in con.coeffs:
            if not 0 <= var < problem.num_vars:
                raise ValueError(f"constraint references undeclared variable {var}")
    for var, _ in problem.objective:
        if not 0 <= var < problem.num_vars:
            raise ValueError(f"objective references undeclared variable {var}")


def check_point(problem: LPProblem, point: Sequence[RationalLike]) -> bool:
    """Exact feasibility check of a point against every constraint and flag."""
    if len(point) != problem.num_vars:
        raise ValueError("point dimension mismatch")
    values = [rational(x) for x in point]
    for flag, x in zip(problem.nonneg, values):
        if flag and x < 0:
            return False
    for con in problem.constraints:
        lhs = ZERO
        for var, coeff in con.coeffs:
            lhs += coeff * values[var]
        if con.relation == LE and not lhs <= con.rhs:
            return False
        if con.relation == EQ and lhs != con.rhs:
            return False
    return True


def _eliminate(other, f, row, nonzero, p, d):
    """One fraction-free row update: `(p * other - f * row) / d`, exactly.

    When the denominator does not change (`p == d`) only the columns in
    `nonzero`, the (column, entry) pairs where `row` is nonzero, move.
    """
    if p == d:
        if f == 0:
            return other
        new = list(other)
        for j, a in nonzero:
            new[j] -= f * a // d
        return new
    if f == 0:
        return [x * p // d for x in other]
    return [(p * x - f * a) // d for x, a in zip(other, row)]


class _Tableau:
    """Dense simplex tableau with Bland's rule, held fraction-free.

    The exact rational tableau entry (r, j) is `rows[r][j] / den`, and the
    basic value of row r is `rhs[r] / den`: every entry is a Python int over
    one common positive denominator, a multiple of the absolute basis
    determinant.  Pivots use Edmonds/Bareiss integer-preserving elimination,
    whose division by the old denominator is always exact, so the simplex
    loop does no rational arithmetic at all.
    """

    def __init__(self, rows, rhs, basis, ncols, den):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.ncols = ncols
        self.den = den

    def pivot(self, r: int, c: int, cost=None):
        """Pivot on entry (r, c); returns `cost` updated alongside, if given."""
        row = self.rows[r]
        p = row[c]
        if p < 0:
            self.rows[r] = row = [-a for a in row]
            self.rhs[r] = -self.rhs[r]
            p = -p
        d = self.den
        b = self.rhs[r]
        nonzero = [(j, a) for j, a in enumerate(row) if a] if p == d else None
        for k, other in enumerate(self.rows):
            if k == r:
                continue
            f = other[c]
            self.rows[k] = _eliminate(other, f, row, nonzero, p, d)
            self.rhs[k] = (p * self.rhs[k] - f * b) // d
        self.basis[r] = c
        self.den = p
        if cost is not None:
            cost = _eliminate(cost, cost[c], row, nonzero, p, d)
        return cost

    def reduce_cost_row(self, cost):
        """Scaled reduced costs `den * (cost - cost_B B^-1 A)` of an integer cost row."""
        reduced = [self.den * x for x in cost]
        for r, b in enumerate(self.basis):
            factor = cost[b]
            if factor != 0:
                reduced = [x - factor * a for x, a in zip(reduced, self.rows[r])]
        return reduced

    def run(self, cost):
        """Maximize; `cost` must already be reduced w.r.t. the basis.

        Returns OPTIMAL or UNBOUNDED.  Entering: least-index column with
        positive reduced cost.  Leaving: least ratio, ties by least
        basic-variable index (Bland; terminates on every input).  Ratios
        `rhs[r] / rows[r][enter]` share the denominator, so they are compared
        by cross-multiplication.
        """
        while True:
            enter = -1
            for j in range(self.ncols):
                if cost[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            for r, row in enumerate(self.rows):
                a = row[enter]
                if a <= 0:
                    continue
                if leave < 0:
                    leave = r
                    continue
                lhs = self.rhs[r] * self.rows[leave][enter]
                rhs = self.rhs[leave] * a
                if lhs < rhs or (lhs == rhs and self.basis[r] < self.basis[leave]):
                    leave = r
            if leave < 0:
                return UNBOUNDED
            cost = self.pivot(leave, enter, cost)


def solve_lp(problem: LPProblem) -> LPResult:
    """Exact optimum, infeasibility, or unboundedness for the given problem."""
    _validate(problem)

    # Column layout: one column per nonnegative variable, two (x+ , x-) per
    # free variable, then one slack/surplus column per inequality row,
    # artificials appended last so they can be truncated after phase 1.
    col_of = []
    neg_col_of = {}
    ncols = 0
    for i in range(problem.num_vars):
        col_of.append(ncols)
        ncols += 1
        if not problem.nonneg[i]:
            neg_col_of[i] = ncols
            ncols += 1

    # Row r is scaled to integers by its own factor s_r > 0, which makes its
    # slack or artificial coefficient s_r.  The starting basis is then
    # diag(s_r), so the starting denominator is its determinant, the product
    # of the factors, and each stored entry is that product times the
    # rational tableau entry.
    raw = []
    den = 1
    for con in problem.constraints:
        coeffs = [ZERO] * ncols
        for var, c in con.coeffs:
            coeffs[col_of[var]] += c
            if var in neg_col_of:
                coeffs[neg_col_of[var]] -= c
        ints, scale = integer_row(coeffs + [con.rhs])
        rel, rhs = con.relation, ints.pop()
        if rhs < 0:
            ints = [-c for c in ints]
            rhs = -rhs
            rel = {LE: ">=", EQ: EQ}[rel]
        raw.append((ints, rel, rhs, scale))
        den *= scale

    n_slack = sum(1 for _, rel, _, _ in raw if rel != EQ)
    n_art = sum(1 for _, rel, _, _ in raw if rel != LE)
    first_slack = ncols
    first_art = ncols + n_slack
    total = first_art + n_art

    rows, rhs_col, basis = [], [], []
    slack_at, art_at = first_slack, first_art
    for ints, rel, rhs, scale in raw:
        mult = den // scale
        row = [mult * c for c in ints] + [0] * (total - ncols)
        if rel == LE:
            row[slack_at] = den
            basis.append(slack_at)
            slack_at += 1
        elif rel == ">=":
            row[slack_at] = -den
            slack_at += 1
            row[art_at] = den
            basis.append(art_at)
            art_at += 1
        else:
            row[art_at] = den
            basis.append(art_at)
            art_at += 1
        rows.append(row)
        rhs_col.append(mult * rhs)

    tab = _Tableau(rows, rhs_col, basis, total, den)

    if n_art:
        cost = tab.reduce_cost_row([0] * first_art + [-1] * n_art)
        tab.run(cost)
        # artificials are nonbasic (zero) or carry their row's rhs, which is >= 0
        if any(tab.rhs[r] for r, b in enumerate(tab.basis) if b >= first_art):
            return LPResult(status=INFEASIBLE)
        # Drive any zero-valued basic artificials out, dropping redundant rows.
        for r in range(len(tab.rows) - 1, -1, -1):
            if tab.basis[r] < first_art:
                continue
            target = next((j for j in range(first_art) if tab.rows[r][j] != 0), None)
            if target is None:
                del tab.rows[r], tab.rhs[r], tab.basis[r]
            else:
                tab.pivot(r, target)
        tab.rows = [row[:first_art] for row in tab.rows]
        tab.ncols = first_art

    # A positive scale of the objective leaves every simplex choice unchanged.
    objective = [ZERO] * tab.ncols
    for var, c in problem.objective:
        objective[col_of[var]] += c
        if var in neg_col_of:
            objective[neg_col_of[var]] -= c
    cost = tab.reduce_cost_row(integer_row(objective)[0])
    if tab.run(cost) == UNBOUNDED:
        return LPResult(status=UNBOUNDED)

    cell = {b: tab.rhs[r] for r, b in enumerate(tab.basis)}
    point = []
    for i in range(problem.num_vars):
        x = cell.get(col_of[i], 0)
        if i in neg_col_of:
            x -= cell.get(neg_col_of[i], 0)
        point.append(rational(x, tab.den))
    value = ZERO
    for var, c in problem.objective:
        value += c * point[var]
    return LPResult(status=OPTIMAL, point=tuple(point), value=value)
