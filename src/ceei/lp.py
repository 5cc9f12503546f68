"""Exact rational linear programming.

Two-phase primal simplex with Bland's rule, which guarantees termination on
every input: the entering variable is the one of least variable id with
positive reduced cost, and ties for leaving go to the least basic id.
Coefficients and right-hand sides are exact: ints, kept as Python ints, or
rationals (a string in `core.rational`'s grammar becomes one; floats and
bools are refused), and a `LinearConstraint` or `LPProblem` is valid once
built.  Rationals are made only for the returned point and value, and a
zero coordinate is returned as `ZERO`.  Inside, each row is scaled to
integers straight from its numerators and denominators (an int's
denominator is 1, so a row of ints keeps its own coefficients), and the
tableau is held fraction-free (Python ints over one common denominator,
updated by Edmonds' integer-preserving elimination), so no rational
arithmetic runs in the pivot loop.  A system already in the tableau's
layout (`<=` int rows, right-hand sides of 0 or more) enters at the slack
basis through `_solve_at_origin`, skipping the set-up and phase 1 but not
phase 2.  The tableau is condensed, as in the dictionary form of lrs (Avis
2000): it stores one column per nonbasic variable, and a pivot hands the
entering variable's column to the leaving variable.  Intended for the small
systems this package builds (tens of variables and constraints), not for
large-scale LP.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .core import ZERO, RationalLike, Record, _exact, _set, rational

LE = "<="
EQ = "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _check_terms(terms: tuple, where: str, num_vars: Optional[int] = None) -> None:
    """TypeError for a variable id that is not an int (a bool is not one)
    or a coefficient that is not an int or a Fraction, ValueError for an id
    given twice or, when `num_vars` is given, out of range, in one pass."""
    seen = set()
    for var, c in terms:
        if type(var) is not int:
            raise TypeError(f"not a variable id: {var!r}")
        if num_vars is not None and not 0 <= var < num_vars:
            raise ValueError(f"{where} references undeclared variable {var}")
        if var in seen:
            raise ValueError(f"{where} repeats variable {var}")
        seen.add(var)
        _exact(c)


class LinearConstraint(Record):
    """`sum(coeff * var) relation rhs` with relation one of LE, EQ.

    `coeffs` holds (variable id, coefficient) pairs, kept as a tuple read
    once from any iterable.  ValueError for no pairs, a repeated id or an
    unknown relation; TypeError for an id not an int or a number not exact.
    """

    __slots__ = ("coeffs", "relation", "rhs")

    def __init__(self, coeffs: Iterable, relation: str, rhs):
        coeffs = tuple(coeffs)
        if relation not in (LE, EQ):
            raise ValueError(f"unknown relation {relation!r}")
        if not coeffs:
            raise ValueError("constraint without coefficients")
        _check_terms(coeffs, "constraint")
        _exact(rhs)
        _set(self, "coeffs", coeffs)
        _set(self, "relation", relation)
        _set(self, "rhs", rhs)


class LPProblem(Record):
    """Maximize a linear objective subject to LinearConstraints.

    `nonneg[i]` marks variable i as restricted to >= 0; other variables are
    free.  `objective` holds (variable id, coefficient) pairs, checked as a
    constraint's are.  `nonneg`, `constraints` and `objective` are each kept
    as a tuple read once from any iterable.  A count that is not an int or
    a flag that is not a bool is a TypeError; no variable, a flag count
    other than `num_vars` or an id out of range a ValueError.
    """

    __slots__ = ("num_vars", "nonneg", "constraints", "objective")

    def __init__(self, num_vars: int, nonneg: Iterable, constraints: Iterable, objective: Iterable):
        nonneg, constraints, objective = tuple(nonneg), tuple(constraints), tuple(objective)
        if type(num_vars) is not int:
            raise TypeError(f"not a variable count: {num_vars!r}")
        if num_vars < 1:
            raise ValueError("problem needs at least one variable")
        if len(nonneg) != num_vars:
            raise ValueError("nonneg flags do not match variable count")
        for flag in nonneg:
            if type(flag) is not bool:
                raise TypeError(f"not a nonneg flag (bool): {flag!r}")
        for con in constraints:
            for var, _ in con.coeffs:
                if not 0 <= var < num_vars:
                    raise ValueError(f"constraint references undeclared variable {var}")
        _check_terms(objective, "objective", num_vars)
        _set(self, "num_vars", num_vars)
        _set(self, "nonneg", nonneg)
        _set(self, "constraints", constraints)
        _set(self, "objective", objective)


class LPResult(Record):
    __slots__ = ("status", "point", "value")

    def __init__(self, status: str, point: Optional[tuple] = None, value=None):
        _set(self, "status", status)
        _set(self, "point", point)
        _set(self, "value", value)


def _terms(coeffs: Mapping[int, RationalLike]) -> tuple:
    """(variable id, coefficient) pairs sorted by id, zeros dropped, in one
    loop: an id that is not an int (a bool or an int subclass is not one)
    is a TypeError, and an int coefficient is kept as it is, any other goes
    through `rational`."""
    terms = []
    for v, c in coeffs.items():
        if type(v) is not int:
            raise TypeError(f"not a variable id: {v!r}")
        if type(c) is not int:
            c = rational(c)
        if c:
            terms.append((v, c))
    terms.sort()
    return tuple(terms)


def constraint(coeffs: Mapping[int, RationalLike], relation: str, rhs: RationalLike) -> LinearConstraint:
    return LinearConstraint(_terms(coeffs), relation, rhs if type(rhs) is int else rational(rhs))


def lp_problem(
    num_vars: int,
    constraints: Sequence[LinearConstraint],
    objective: Mapping[int, RationalLike],
    nonneg: Optional[Sequence[bool]] = None,
) -> LPProblem:
    flags = nonneg if nonneg is not None else (True,) * num_vars
    return LPProblem(num_vars=num_vars, nonneg=flags, constraints=constraints, objective=_terms(objective))


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
        if lhs > con.rhs or (con.relation == EQ and lhs != con.rhs):
            return False
    return True


class _Tableau:
    """Condensed simplex tableau with Bland's rule, held fraction-free.

    Only nonbasic variables have stored columns: `var[j]` is the variable id
    of stored column j and `basis[r]` the basic variable of row r, whose unit
    column is implicit.  Pivots leave the stored columns out of id order,
    so Bland's rule picks by `var[j]`, never by j.  Each row ends with its
    right-hand side.  The exact rational entry (r, j) is `rows[r][j] / den`
    and the basic value of row r is `rows[r][-1] / den`: every entry is a
    Python int over one common positive denominator, a multiple of the
    absolute basis determinant.

    A pivot exchanges the basic variable of row r with the nonbasic variable
    of stored column c (Edmonds' integer elimination, in the dictionary form
    of lrs).  With p the pivot entry and d the old denominator, every other
    row k becomes `(p * row_k - f_k * row_r) // d`, where f_k is its entry in
    column c, and the division is always exact.  Column c then holds the
    leaving variable: d in row r and -f_k in row k, both negated when a
    drive-out pivot on a negative entry has first negated row r.  The cost
    row is updated the same way, so the simplex loop does no rational
    arithmetic at all.
    """

    def __init__(self, rows, basis, var, den):
        self.rows = rows
        self.basis = basis
        self.var = var
        self.den = den

    def pivot(self, r: int, c: int, cost=None):
        """Pivot on entry (r, c); returns `cost` updated alongside, if given."""
        rows, d = self.rows, self.den
        row = rows[r]
        p = row[c]
        lead = d
        if p < 0:
            row = [-a for a in row]
            p, lead = -p, -d
        row[c] = 0
        # When the denominator does not change only the pivot row's nonzeros
        # move, so the other rows are updated in place.
        nonzero = [(j, a) for j, a in enumerate(row) if a] if p == d else None
        if cost is not None:
            rows.append(cost)
        for k, other in enumerate(rows):
            if k == r:
                continue
            f = other[c]
            if f == 0:
                if p != d:
                    rows[k] = [x * p // d for x in other]
                continue
            if nonzero is not None:
                new = other
                for j, a in nonzero:
                    new[j] -= f * a // d
            else:
                new = [(p * x - f * a) // d for x, a in zip(other, row)]
            new[c] = -f if lead > 0 else f
            rows[k] = new
        if cost is not None:
            cost = rows.pop()
        row[c] = lead
        rows[r] = row
        self.basis[r], self.var[c] = self.var[c], self.basis[r]
        self.den = p
        return cost

    def reduce_cost_row(self, cost):
        """Scaled reduced costs `den * (cost - cost_B B^-1 A)` of the stored
        columns, from an integer cost per variable id, then the negated
        scaled objective value in the right-hand side's place."""
        reduced = [self.den * cost[v] for v in self.var] + [0]
        for r, b in enumerate(self.basis):
            factor = cost[b]
            if factor != 0:
                reduced = [x - factor * a for x, a in zip(reduced, self.rows[r])]
        return reduced

    def run(self, cost):
        """Maximize; `cost` must already be reduced w.r.t. the basis.

        Returns OPTIMAL or UNBOUNDED.  Entering: the nonbasic variable of
        least id with positive reduced cost, found in one scan over the
        stored columns' ids and costs, then looked up in `var` for its
        column (ids are distinct).  Leaving: least ratio, ties by least
        basic-variable id (Bland; terminates on every input).  Ratios
        `rows[r][-1] / rows[r][enter]` share the denominator, so they are
        compared by cross-multiplication.
        """
        rows, basis, var = self.rows, self.basis, self.var
        while True:
            least = -1
            for v, x in zip(var, cost):
                if x > 0 and (least < 0 or v < least):
                    least = v
            if least < 0:
                return OPTIMAL
            enter = var.index(least)
            leave = -1
            for r, row in enumerate(rows):
                a = row[enter]
                if a <= 0:
                    continue
                if leave >= 0:
                    lhs = row[-1] * best_a
                    rhs = best_b * a
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[leave]):
                        continue
                leave, best_a, best_b = r, a, row[-1]
            if leave < 0:
                return UNBOUNDED
            cost = self.pivot(leave, enter, cost)


def _spread(terms, scale, col_of, neg_col_of, width):
    """Integer entries `scale * coeff` of (variable id, coeff) terms, spread
    over the columns of `col_of` and `neg_col_of`; `scale` must be a multiple
    of every denominator."""
    row = [0] * width
    for var, c in terms:
        x = c.numerator * (scale // c.denominator)
        row[col_of[var]] += x
        if var in neg_col_of:
            row[neg_col_of[var]] -= x
    return row


def solve_lp(problem: LPProblem) -> LPResult:
    """Exact optimum, infeasibility, or unboundedness for the given problem."""

    # Variable ids: one column per nonnegative variable, two (x+ , x-) per
    # free variable, then one slack/surplus per inequality row, and the
    # artificials last, so they can be dropped after phase 1.
    col_of = []
    neg_col_of = {}
    ncols = 0
    for i in range(problem.num_vars):
        col_of.append(ncols)
        ncols += 1
        if not problem.nonneg[i]:
            neg_col_of[i] = ncols
            ncols += 1

    # Row r is scaled to integers by its own factor s_r > 0, the LCM of its
    # denominators, which makes its slack or artificial coefficient s_r.  The
    # starting basis is then diag(s_r), so the starting denominator is its
    # determinant, the product of the factors, and each stored entry is that
    # product times the rational tableau entry.  A row of ints has s_r = 1,
    # so a problem of int rows starts over denominator 1 with its own
    # coefficients as entries.  A row with a negative right-hand side is
    # negated, which turns "<=" into ">=": a nonbasic surplus column (-den)
    # and a basic artificial.
    den = 1
    n_le = n_surplus = 0
    for con in problem.constraints:
        den *= lcm(con.rhs.denominator, *[c.denominator for _, c in con.coeffs])
        if con.relation == LE:
            n_le += 1
            n_surplus += con.rhs < 0
    first_art = ncols + n_le

    rows, basis, var, arts = [], [], list(range(ncols)), []
    slack_at, art_at = ncols, first_art
    for con in problem.constraints:
        row = _spread(con.coeffs, den, col_of, neg_col_of, ncols + n_surplus)
        row.append(con.rhs.numerator * (den // con.rhs.denominator))
        flip = row[-1] < 0
        if flip:
            row = [-a for a in row]
        if con.relation == LE and not flip:
            basis.append(slack_at)
        else:
            if con.relation == LE:
                row[len(var)] = -den
                var.append(slack_at)
            basis.append(art_at)
            art_at += 1
            arts.append(row)
        slack_at += con.relation == LE
        rows.append(row)

    tab = _Tableau(rows, basis, var, den)

    if arts:
        # Phase 1 maximizes minus the sum of the artificials, each basic in
        # its own row, so its reduced-cost row is the sum of those rows.
        tab.run([sum(column) for column in zip(*arts)])
        # artificials are nonbasic (zero) or carry their row's rhs, which is >= 0
        if any(row[-1] for row, b in zip(tab.rows, tab.basis) if b >= first_art):
            return LPResult(status=INFEASIBLE)
        # Drive any zero-valued basic artificials out, each by the least
        # nonbasic non-artificial variable with a nonzero entry in its row,
        # dropping redundant rows.
        for r in range(len(tab.rows) - 1, -1, -1):
            if tab.basis[r] < first_art:
                continue
            row = tab.rows[r]
            target = min(((v, j) for j, v in enumerate(tab.var) if v < first_art and row[j]), default=None)
            if target is None:
                del tab.rows[r], tab.basis[r]
            else:
                tab.pivot(r, target[1])
        keep = [j for j, v in enumerate(tab.var) if v < first_art]
        tab.var = [tab.var[j] for j in keep]
        keep.append(-1)  # the right-hand side
        tab.rows = [[row[j] for j in keep] for row in tab.rows]

    # A positive scale of the objective leaves every simplex choice unchanged.
    scale = lcm(*(c.denominator for _, c in problem.objective))
    cost = tab.reduce_cost_row(_spread(problem.objective, scale, col_of, neg_col_of, first_art))
    scaled = _optimum(tab, cost, col_of, neg_col_of)
    if scaled is None:
        return LPResult(status=UNBOUNDED)
    # The value is the objective of the scaled point over tab.den; a zero
    # is returned as ZERO.
    point = tuple([rational(x, tab.den) if x else ZERO for x in scaled])
    total = sum([c * scaled[var] for var, c in problem.objective])
    value = rational(total, tab.den) if total else ZERO
    return LPResult(status=OPTIMAL, point=point, value=value)


def _solve_at_origin(rows: list, objective: list):
    """Maximize `objective . x` over x >= 0 subject to `row[:-1] . x <=
    row[-1]` for each int row, whose right-hand side must be 0 or more.

    The rows are the tableau at the slack basis over denominator 1, and
    the objective its reduced cost row, so phase 2 makes the pivots
    `solve_lp` makes on the same system.  Nothing is checked, and the rows
    are pivoted in place.  None when unbounded, else the optimal point as
    ints over a common denominator, and that denominator.
    """
    n = len(objective)
    tab = _Tableau(rows, list(range(n, n + len(rows))), list(range(n)), 1)
    scaled = _optimum(tab, [*objective, 0], range(n), {})
    return None if scaled is None else (scaled, tab.den)


def _optimum(tab: _Tableau, cost: list, col_of, neg_col_of: dict) -> Optional[list]:
    """Phase 2 from `cost`, reduced w.r.t. the tableau's basis: None when
    unbounded, else each variable's value as an int over `tab.den`, read
    from its column in `col_of` less its negative part's in `neg_col_of`."""
    if tab.run(cost) == UNBOUNDED:
        return None
    cell = {b: row[-1] for row, b in zip(tab.rows, tab.basis)}
    scaled = []
    for i, col in enumerate(col_of):
        x = cell.get(col, 0)
        if i in neg_col_of:
            x -= cell.get(neg_col_of[i], 0)
        scaled.append(x)
    return scaled
