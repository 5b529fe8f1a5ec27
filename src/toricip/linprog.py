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
nonempty and runs phase 1 on x itself, with no split and no slack.
``gordan_ray`` runs phase 1 on {x >= 0 : Gx = 0, 1 . x = 1}: when it ends
infeasible, the final phase-1 cost row holds the Farkas ray, an integer y
with y . g >= 1 for every column g of G.  All three build their tableau
with one phase-1 routine.  Problem sizes in this package
are tiny (tens of rows/columns), which is the regime this solver is written
for.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import Record
from .linalg import clear_denominators, dot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPResult(Record):
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
    rows, basis, z = _phase1(std, [*b_ub, *b_eq])
    if z[-1]:  # -k times the least sum of the artificials, for some k > 0
        return LPResult(INFEASIBLE)
    ncols = 2 * nx + nslack  # drop the artificials and any redundant row
    _drive_out_artificials(rows, basis, ncols)
    rows = [_primitive(r[:ncols] + r[-1:]) for r in rows]

    cost, _ = clear_denominators(obj)
    cost += [-c for c in cost] + [0] * nslack
    if _simplex(rows, basis, _cost_row(rows, basis, cost)) is None:
        return LPResult(UNBOUNDED)
    xsplit = [Fraction(0)] * len(cost)
    for r, b in zip(rows, basis):
        xsplit[b] = Fraction(r[-1], r[b])
    x = tuple(xsplit[j] - xsplit[nx + j] for j in range(nx))
    value = dot(obj, x)
    return LPResult(OPTIMAL, x, -value if maximize else value)


def nonneg_feasible(rows, b):
    """Exact feasibility of {x >= 0 : rows x = b}; with no columns, of b = 0."""
    return not _phase1(rows, b)[2][-1]


def gordan_ray(cols):
    """An integer y with y . g >= 1 for every g in ``cols``, or None when there is none.

    Gordan's alternative: either some x >= 0, x != 0 has sum x_j g_j = 0, or
    such a y exists.  Phase 1 runs on {x >= 0 : G x = 0, 1 . x = 1} with G's
    columns ``cols``.  At an infeasible optimum the cost row is k (c - pi M)
    for some k > 0, the artificials' entries are k (1 - pi_i) and the rhs
    entry is -k pi_last < 0.  Then y_i = -pi_i / pi_last, scaled by
    k pi_last, is z_i - z_last + z_rhs over the artificials' entries, with
    y . g >= k pi_last >= 1; it is returned divided by the gcd of its entries.
    """
    d, n = len(cols[0]), len(cols)
    _, _, z = _phase1([*zip(*cols), [1] * n], [0] * d + [1])
    if not z[-1]:
        return None
    art = z[n : n + d + 1]
    return tuple(_primitive([v - art[d] + z[-1] for v in art[:d]]))


def _phase1(std, rhs):
    """Rows, basis and cost row of phase 1 on {x >= 0 : std x = rhs}, run to its optimum.

    Each row is scaled to integers and signed so its right-hand side is
    nonnegative; an artificial column per row starts the basis, and the
    cost is their sum.
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
    z = _simplex(rows, basis, _cost_row(rows, basis, [0] * ncols + [1] * m))
    if z is None:
        raise RuntimeError("phase 1 cannot be unbounded")
    return rows, basis, z


def _primitive(row):
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _cost_row(rows, basis, cost):
    """A positive multiple of the reduced costs of ``cost``, as a primitive row.

    The simplex reads only signs, so the multiple is not tracked.  The entry
    under the rhs column keeps the row as long as the tableau rows.
    """
    scale = lcm(*[r[b] for r, b in zip(rows, basis) if cost[b]])
    z = [scale * c for c in cost] + [0]
    for r, b in zip(rows, basis):
        if cost[b]:
            f = cost[b] * (scale // r[b])
            z = [u - f * v for u, v in zip(z, r)]
    return _primitive(z)


def _simplex(rows, basis, z):
    """Bland-rule simplex on rows already in basic feasible form.

    ``z`` is the cost row from :func:`_cost_row`; it is pivoted with the rows.
    Returns the final cost row at an optimum, None when the LP is unbounded.
    """
    while True:
        enter = next((j for j in range(len(z) - 1) if z[j] < 0), None)
        if enter is None:
            return z
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
            return None
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
