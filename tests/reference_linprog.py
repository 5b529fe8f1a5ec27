"""Reference LP solver for tests: the dense two-phase Fraction simplex.

This is the tableau ``toricip.linprog`` used before it switched to integer
pivoting.  It keeps one ``fractions.Fraction`` per tableau entry and
recomputes the reduced costs on every iteration.  It uses the same column
layout and Bland's rule, so ``solve_lp`` must return an identical
``LPResult`` on every input; ``tests/test_linprog.py`` checks that.

``reference_nonneg_feasible`` is the x >= 0 feasibility test as the library
once wrote it: free variables, with x >= 0 spelled out as identity rows.
``reference_grading`` is the grading LP ``core.grading`` once solved: the
y with y . g >= 1 for every column g that minimizes the sum of the y . g.
"""

from fractions import Fraction

from toricip.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult


def reference_solve_lp(objective, a_ub=(), b_ub=(), a_eq=(), b_eq=(), maximize=False):
    """Optimize ``objective . x`` over {a_ub x <= b_ub, a_eq x = b_eq}, x free.

    Returns an LPResult whose ``x`` is a tuple of Fractions.  ``value`` is the
    optimal objective in the requested sense.
    """
    nx = len(objective)
    obj = [Fraction(-c if maximize else c) for c in objective]
    rows = []
    rhs = []
    nslack = len(a_ub)
    for r, b in zip(a_ub, b_ub):
        rows.append([Fraction(v) for v in r])
        rhs.append(Fraction(b))
    for r, b in zip(a_eq, b_eq):
        rows.append([Fraction(v) for v in r])
        rhs.append(Fraction(b))
    m = len(rows)
    ncols = 2 * nx + nslack
    # columns: x+ (nx), x- (nx), slacks (nslack), then phase-1 artificials
    tab = []
    for i in range(m):
        row = [Fraction(0)] * ncols
        for j in range(nx):
            row[j] = rows[i][j]
            row[nx + j] = -rows[i][j]
        if i < nslack:
            row[2 * nx + i] = Fraction(1)
        if rhs[i] < 0:
            row = [-v for v in row]
            rhs[i] = -rhs[i]
        tab.append(row + [rhs[i]])

    basis = []
    for i in range(m):
        for row in tab:
            row.insert(ncols + i, Fraction(0))
        tab[i][ncols + i] = Fraction(1)
        basis.append(ncols + i)
    total = ncols + m

    cost1 = [Fraction(0)] * total
    for j in range(ncols, total):
        cost1[j] = Fraction(1)
    if _simplex(tab, basis, cost1, total) != OPTIMAL:
        raise RuntimeError("phase 1 cannot be unbounded")
    if _objective_value(tab, basis, cost1) > 0:
        return LPResult(INFEASIBLE)
    _drive_out_artificials(tab, basis, ncols, total)

    cost2 = [Fraction(0)] * total
    for j in range(nx):
        cost2[j] = obj[j]
        cost2[nx + j] = -obj[j]
    status = _simplex(tab, basis, cost2, ncols)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    xsplit = [Fraction(0)] * total
    for i, b in enumerate(basis):
        xsplit[b] = tab[i][-1]
    x = tuple(xsplit[j] - xsplit[nx + j] for j in range(nx))
    value = sum(o * v for o, v in zip(obj, x))
    return LPResult(OPTIMAL, x, -value if maximize else value)


def reference_nonneg_feasible(rows, b):
    """Feasibility of {x >= 0 : rows x = b} as k identity rows -x_i <= 0 over free x."""
    k = len(rows[0]) if rows else 0
    nonneg = [[-1 if j == i else 0 for j in range(k)] for i in range(k)]
    return reference_solve_lp([0] * k, nonneg, [0] * k, rows, b).status == OPTIMAL


def reference_grading(cols):
    """The rational y with y . g >= 1 for every g in ``cols`` minimizing sum y . g, or None."""
    total = [sum(g[i] for g in cols) for i in range(len(cols[0]))]
    res = reference_solve_lp(total, [[-v for v in g] for g in cols], [-1] * len(cols))
    return res.x if res.status == OPTIMAL else None


def _objective_value(tab, basis, cost):
    return sum(cost[b] * tab[i][-1] for i, b in enumerate(basis))


def _reduced_costs(tab, basis, cost, ncols):
    red = list(cost[:ncols])
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb != 0:
            row = tab[i]
            for j in range(ncols):
                if row[j] != 0:
                    red[j] -= cb * row[j]
    return red


def _simplex(tab, basis, cost, ncols):
    """Bland-rule simplex on rows already in basic feasible form."""
    m = len(tab)
    while True:
        red = _reduced_costs(tab, basis, cost, ncols)
        enter = next((j for j in range(ncols) if red[j] < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(tab, basis, leave, enter)


def _pivot(tab, basis, i, j):
    piv = tab[i][j]
    tab[i] = [v / piv for v in tab[i]]
    for k in range(len(tab)):
        if k != i and tab[k][j] != 0:
            f = tab[k][j]
            tab[k] = [a - f * b for a, b in zip(tab[k], tab[i])]
    basis[i] = j


def _drive_out_artificials(tab, basis, ncols, total):
    """After phase 1, pivot zero-valued artificials out of the basis."""
    i = 0
    while i < len(tab):
        if basis[i] >= ncols:
            enter = next((j for j in range(ncols) if tab[i][j] != 0), None)
            if enter is None:
                # redundant constraint row
                del tab[i]
                del basis[i]
                continue
            _pivot(tab, basis, i, enter)
        i += 1
