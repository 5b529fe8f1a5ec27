"""Reference lattice-point enumerators for tests: the naive versions.

These are the enumerators ``toricip`` used before one integer
Fourier–Motzkin sweep (``fibers.lattice_points_boxed``, also bound as
``oracle.lattice_points_boxed``) replaced them all, fibers included.  Each
answers the same questions by a different route, so the tests can hold the
sweep equal to them:

- ``reference_boxed``: vertex enumeration over every Cramer-solvable row
  subset, then a filter over every point of the vertex bounding box;
- ``reference_lp_sweep``: one coordinate at a time, between the minimum and
  the maximum of that coordinate over the slice, each found by an LP;
- ``reference_recession_trivial``: 2·dim LPs, one per signed unit direction;
- ``reference_plan_sweep``: the recursive sweep ``fibers.Elimination.points``
  ran before its one flat loop, over the levels of the same plan, so where it
  returns [] and where it raises Unbounded are pinned as well as its points;
- ``reference_parallelepiped_points``: the corner box of the parallelepiped,
  keeping a point when its exact coordinates in the generators, from one
  Gauss-Jordan pass, lie in [0, 1).
- ``reference_fiber``: the fiber {x in N^n : A x = b} walked one coordinate
  of x at a time: when A has no negative entry, by integer bounds from the
  remaining residual, with the last coordinate solved from it; otherwise by
  one LP bound per prefix.
"""

import math
from fractions import Fraction
from itertools import combinations, product
from operator import sub

from reference_linalg import dot

from toricip.errors import Unbounded
from toricip.linalg import det_int
from toricip.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def reference_boxed(rows, dim, limit=None):
    """Integer points of {s . z <= o}, ascending lex, by a vertex-box sweep.

    Assumes the polytope is bounded or empty.
    """
    if dim == 0:
        return [()] if all(o >= 0 for _, o in rows) else []
    verts = []
    for sub in combinations(range(len(rows)), dim):
        m = [rows[i][0] for i in sub]
        d = det_int(m)
        if d == 0:
            continue
        z = []
        for j in range(dim):
            mj = [list(rows[i][0]) for i in sub]
            for t in range(dim):
                mj[t][j] = rows[sub[t]][1]
            z.append(Fraction(det_int(mj), d))
        if all(dot(s, z) <= o for s, o in rows):
            verts.append(z)
    if not verts:
        return []
    lo = [math.ceil(min(v[j] for v in verts)) for j in range(dim)]
    hi = [math.floor(max(v[j] for v in verts)) for j in range(dim)]
    out = []
    for z in product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        if all(dot(s, z) <= o for s, o in rows):
            out.append(z)
            if limit is not None and len(out) >= limit:
                break
    return out


def reference_lp_sweep(rows, dim, limit=None):
    """Integer points of {s . z <= o}, ascending lex, by one LP per slice bound.

    Raises Unbounded when a slice is unbounded.
    """
    out = []
    _sweep([(list(s), o) for s, o in rows], dim, (), out, limit)
    return out


def _sweep(rows, dim, prefix, out, limit):
    if dim == 0:
        if all(o >= 0 for _, o in rows):
            out.append(prefix)
        return limit is not None and len(out) >= limit
    obj = [1] + [0] * (dim - 1)
    a_ub = [c for c, _ in rows]
    b_ub = [o for _, o in rows]
    lo = solve_lp(obj, a_ub, b_ub)
    if lo.status == INFEASIBLE:
        return False
    hi = solve_lp(obj, a_ub, b_ub, maximize=True)
    if UNBOUNDED in (lo.status, hi.status):
        raise Unbounded("slice extremum is unbounded")
    for v in range(math.ceil(lo.value), math.floor(hi.value) + 1):
        sub = [(coefs[1:], o - coefs[0] * v) for coefs, o in rows]
        if _sweep(sub, dim - 1, prefix + (v,), out, limit):
            return True
    return False


def reference_plan_sweep(plan, offsets, limit=None):
    """Integer points of {s . z <= o} for an ``Elimination`` plan, by a recursive sweep.

    Its own offset pass fills the plan's levels; then one call per prefix
    bounds the next coordinate by its level's rows with an offset.  Raises
    Unbounded on reaching a coordinate that lacks a bound on one side.
    """
    dim = plan.dim
    if limit == 0:
        return []
    if dim == 0:
        return [()] if all(o is None or o >= 0 for o in offsets) else []
    plan.bounded  # makes the plan
    levels = []
    for size, sources in plan._steps:
        cur = [None] * size
        for dst, i, j, mi, mj, g in sources:
            if offsets[i] is not None and offsets[j] is not None:
                v = (mi * offsets[i] + mj * offsets[j]) // g
                if cur[dst] is None or v < cur[dst]:
                    cur[dst] = v
        levels.append(cur)
        offsets = cur
    if plan._zero is not None and offsets[plan._zero] is not None and offsets[plan._zero] < 0:
        return []
    bounds = [([(p, c, offs[d]) for d, p, c in upper if offs[d] is not None],
               [(p, c, offs[d]) for d, p, c in lower if offs[d] is not None])
              for offs, (upper, lower) in zip(reversed(levels), plan._bounds)]
    out = []

    def sweep(prefix):
        k = len(prefix)
        upper, lower = bounds[k]
        if not upper or not lower:
            raise Unbounded(f"coordinate {k + 1} is unbounded")
        hi = min((o - dot(p, prefix)) // c for p, c, o in upper)
        lo = max(-((o - dot(p, prefix)) // -c) for p, c, o in lower)
        for v in range(lo, hi + 1):
            if k + 1 < dim:
                if sweep(prefix + (v,)):
                    return True
            else:
                out.append(prefix + (v,))
                if limit is not None and len(out) >= limit:
                    return True
        return False

    sweep(())
    return out


def reference_recession_trivial(normals, dim):
    """Whether {s . z <= 0} is {0}: no unit direction has a positive maximum."""
    if dim == 0:
        return True
    a_ub = [list(s) for s in normals]
    b_ub = [0] * len(normals)
    for i in range(dim):
        for sense in (1, -1):
            obj = [0] * dim
            obj[i] = sense
            res = solve_lp(obj, a_ub + [obj], b_ub + [1], maximize=True)
            if res.status != OPTIMAL or res.value > 0:
                return False
    return True


def reference_parallelepiped_points(gens):
    """Lattice points of {sum lam_i g_i : 0 <= lam_i < 1} for independent gens.

    One Fraction Gauss-Jordan pass over [G | I] gives rows p_t with
    lam_t = p_t . x on span(G), and rows k with k . x = 0 exactly on
    span(G).  Cleared of denominators, they test each point of the corner
    box in integers.
    """
    r = len(gens)
    d = len(gens[0])
    aug = [[Fraction(g[i]) for g in gens] + [Fraction(int(i == j)) for j in range(d)]
           for i in range(d)]
    for col in range(r):
        piv = next(i for i in range(col, d) if aug[i][col] != 0)
        row = aug.pop(piv)
        aug.insert(col, [v / row[col] for v in row])
        for i in range(d):
            if i != col and aug[i][col] != 0:
                aug[i] = [a - aug[i][col] * b for a, b in zip(aug[i], aug[col])]
    scale = math.lcm(*(v.denominator for row in aug for v in row[r:]))
    ints = [[int(v * scale) for v in row[r:]] for row in aug]
    corners = [
        tuple(sum(gens[t][i] for t in range(r) if mask >> t & 1) for i in range(d))
        for mask in range(1 << r)
    ]
    lo = [min(c[i] for c in corners) for i in range(d)]
    hi = [max(c[i] for c in corners) for i in range(d)]
    out = []
    for x in product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        if (all(0 <= dot(p, x) < scale for p in ints[:r])
                and not any(dot(k, x) for k in ints[r:])):
            out.append(tuple(x))
    return out


def reference_fiber(rows, b):
    """All x in N^n with rows @ x = b, ascending lex, by a walk over x itself.

    Assumes the fiber is finite: an LP bound that is unbounded ends its
    branch, and a zero column of a nonnegative matrix raises ValueError.
    """
    d = len(rows)
    n = len(rows[0]) if d else 0
    b = tuple(int(v) for v in b)
    if all(v >= 0 for row in rows for v in row):
        if min(b, default=0) < 0:
            return []
        cols = [tuple(row[k] for row in rows) for k in range(n)]
        if not all(map(any, cols)):
            raise ValueError("zero column makes the fiber infinite")
        if n == 0:
            return [] if any(b) else [()]
        out = []
        _walk_nonneg(cols, b, (), out)
        return out
    return list(_iter_lp(rows, d, n, 0, b, ()))


def _walk_nonneg(cols, residual, prefix, out):
    """Append each x >= 0 with sum_k x_k cols[k] == residual to ``out``, in lex order.

    The residual is nonnegative.  Each coordinate but the last runs from 0 to
    its integer bound; the last one is solved from the residual.
    """
    col = cols[0]
    top = min(r // c for r, c in zip(residual, col) if c > 0)
    if len(cols) == 1:
        if residual == tuple(top * c for c in col):
            out.append(prefix + (top,))
        return
    for v in range(top + 1):
        _walk_nonneg(cols[1:], residual, prefix + (v,), out)
        residual = tuple(map(sub, residual, col))


def _iter_lp(rows, d, n, k, residual, prefix):
    if k == n:
        if all(r == 0 for r in residual):
            yield prefix
        return
    nrest = n - k
    cols = [[rows[i][j] for j in range(k, n)] for i in range(d)]
    a_ub = [[-1 if j == i else 0 for j in range(nrest)] for i in range(nrest)]
    res = solve_lp(
        [1] + [0] * (nrest - 1), a_ub, [0] * nrest, cols, list(residual), maximize=True
    )
    if res.status != OPTIMAL:
        return
    ub = int(res.value)  # floor of a nonnegative rational
    for v in range(ub + 1):
        nres = tuple(residual[i] - v * rows[i][k] for i in range(d))
        yield from _iter_lp(rows, d, n, k + 1, nres, prefix + (v,))
