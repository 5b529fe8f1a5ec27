"""Exact rational linear programming.

A dense two-phase simplex with Bland's rule, so it terminates and every sign
decision is exact.  Pivoting is fraction-free: a tableau row is a list of
Python ints and stands for itself divided by its entry in the row's basic
column, which is kept positive.  After each pivot a row is divided by the gcd
of its entries.  Rationals appear only at the boundary: each input row is
scaled by the lcm of its denominators, and ``x`` and ``value`` are returned
as Fractions.  The arithmetic is exact, so the pivots and the results are
those of the same simplex run on a ``fractions.Fraction`` tableau.

``solve_lp`` takes free variables and splits each into a difference of
nonnegative parts.  ``nonneg_feasible`` asks whether {x >= 0 : Gx = b} is
nonempty and runs phase 1 on x itself, with no split and no slack.  Both
build their tableau with one phase-1 routine.  Problem sizes in this package
are tiny (tens of rows/columns), which is the regime this solver is written
for.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .linalg import clear_denominators, dot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    x: tuple | None = None
    value: Fraction | None = None


def solve_lp(objective, a_ub=(), b_ub=(), a_eq=(), b_eq=(), maximize=False):
    """Optimize ``objective . x`` over {a_ub x <= b_ub, a_eq x = b_eq}, x free.

    Returns an LPResult whose ``x`` is a tuple of Fractions.  ``value`` is the
    optimal objective in the requested sense.
    """
    nx = len(objective)
    obj = [Fraction(-c if maximize else c) for c in objective]
    nslack = len(a_ub)
    # columns: x+ (nx), x- (nx), slacks (nslack)
    std = [[*r, *(-v for v in r), *(int(i == j) for j in range(nslack))]
           for i, r in enumerate([*a_ub, *a_eq])]
    feasible = _phase1(std, [*b_ub, *b_eq])
    if feasible is None:
        return LPResult(INFEASIBLE)
    rows, basis = feasible

    cost, _ = clear_denominators(obj)
    cost += [-c for c in cost] + [0] * nslack
    if _simplex(rows, basis, _cost_row(rows, basis, cost)) == UNBOUNDED:
        return LPResult(UNBOUNDED)
    xsplit = [Fraction(0)] * len(cost)
    for r, b in zip(rows, basis):
        xsplit[b] = Fraction(r[-1], r[b])
    x = tuple(xsplit[j] - xsplit[nx + j] for j in range(nx))
    value = dot(obj, x)
    return LPResult(OPTIMAL, x, -value if maximize else value)


def nonneg_feasible(rows, b):
    """Exact feasibility of {x >= 0 : rows x = b}; with no columns, of b = 0."""
    return _phase1(rows, b) is not None


def _phase1(std, rhs):
    """A feasible basis of {x >= 0 : std x = rhs} as ``(rows, basis)``, or None.

    Each row is scaled to integers and signed so its right-hand side is
    nonnegative; an artificial column per row starts the basis.  The returned
    rows drop the artificials and any redundant row.
    """
    m = len(std)
    ncols = len(std[0]) if std else 0
    # columns: x (ncols), artificials (m), rhs
    rows = []
    for i, (r, b) in enumerate(zip(std, rhs)):
        (*a, b), scale = clear_denominators([*r, b])
        sign = -1 if b < 0 else 1
        art = [0] * m
        art[i] = scale
        rows.append([sign * v for v in a] + art + [sign * b])
    basis = list(range(ncols, ncols + m))

    if _simplex(rows, basis, _cost_row(rows, basis, [0] * ncols + [1] * m)) != OPTIMAL:
        raise RuntimeError("phase 1 cannot be unbounded")
    if any(r[-1] for r, b in zip(rows, basis) if b >= ncols):
        return None
    _drive_out_artificials(rows, basis, ncols)
    return [_primitive(r[:ncols] + r[-1:]) for r in rows], basis


def _primitive(row):
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _cost_row(rows, basis, cost):
    """A positive multiple of the reduced costs of ``cost``, as a primitive row.

    The simplex reads only signs, so the multiple is not tracked.  The entry
    under the rhs column keeps the row as long as the tableau rows.
    """
    scale = lcm(*(r[b] for r, b in zip(rows, basis) if cost[b]))
    z = [scale * c for c in cost] + [0]
    for r, b in zip(rows, basis):
        if cost[b]:
            f = cost[b] * (scale // r[b])
            z = [u - f * v for u, v in zip(z, r)]
    return _primitive(z)


def _simplex(rows, basis, z):
    """Bland-rule simplex on rows already in basic feasible form.

    ``z`` is the cost row from :func:`_cost_row`; it is pivoted with the rows.
    """
    while True:
        enter = next((j for j in range(len(z) - 1) if z[j] < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        for i, r in enumerate(rows):
            a = r[enter]
            if a > 0:
                # the row denominator cancels: the ratio is r[-1] / a
                if leave is not None:
                    diff = r[-1] * best_a - best_rhs * a
                    if diff > 0 or (diff == 0 and basis[i] > basis[leave]):
                        continue
                leave, best_rhs, best_a = i, r[-1], a
        if leave is None:
            return UNBOUNDED
        z = _eliminate(z, _pivot(rows, basis, leave, enter), enter)


def _eliminate(row, prow, j):
    """``row`` with column ``j`` cleared by the pivot row ``prow`` (prow[j] > 0)."""
    f = row[j]
    if not f:
        return row
    p = prow[j]
    return _primitive([p * u - f * v for u, v in zip(row, prow)])


def _pivot(rows, basis, i, j):
    """Make column ``j`` basic in row ``i``; returns the new pivot row."""
    prow = rows[i]
    if prow[j] < 0:
        prow = rows[i] = [-v for v in prow]
    basis[i] = j
    for k, row in enumerate(rows):
        if k != i:
            rows[k] = _eliminate(row, prow, j)
    return prow


def _drive_out_artificials(rows, basis, ncols):
    """After phase 1, pivot zero-valued artificials out of the basis."""
    i = 0
    while i < len(rows):
        if basis[i] >= ncols:
            enter = next((j for j in range(ncols) if rows[i][j]), None)
            if enter is None:
                # redundant constraint row
                del rows[i]
                del basis[i]
                continue
            _pivot(rows, basis, i, enter)
        i += 1
