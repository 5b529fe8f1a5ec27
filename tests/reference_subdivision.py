"""The regular subdivision by a scan over every candidate basis, as the library computed it before.

Each of the C(n, d) d-subsets sigma with det A_sigma != 0 is solved for the y
with y.a_j = c_j on sigma, in Fraction Gauss-Jordan
(``reference_linalg.solve_exact``); sigma's equality set is a maximal cell
when y.a_j <= c_j holds for every column.  The library walks the bases of the
lex refinement in integers instead; tests hold the two equal.  The result
keeps no simplex inverses: tests only compare it.
"""

from itertools import combinations

from reference_linalg import dot, solve_exact

from toricip.linalg import det_int
from toricip.triangulation import RegularSubdivision


def reference_subdivision(a, cost):
    at = [list(a.column(j)) for j in range(a.n)]  # row j is a_j
    cells = {}
    for sigma in combinations(range(a.n), a.d):
        sub = [at[j] for j in sigma]
        if det_int(sub) == 0:
            continue
        y = solve_exact(sub, [cost[j] for j in sigma])
        eq = []
        for j in range(a.n):
            v = dot(at[j], y)
            if v > cost[j]:
                break
            if v == cost[j]:
                eq.append(j)
        else:
            cells.setdefault(tuple(eq), y)
    faces = sorted(cells, key=lambda f: (len(f), f))
    is_tri = all(len(f) == a.d for f in faces)
    certs = tuple(cells[f] for f in faces)
    return RegularSubdivision(a, tuple(cost), tuple(faces), certs, is_tri, (), ())
