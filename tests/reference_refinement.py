"""Reference lex refinement for tests: a search over integer costs.

``triangulation.lex_refinement`` reads the refinement of a degenerate cost
off the cells of its subdivision.  This reference finds it the slow way:
geometric lex weights are added to the cost at increasing scales until the
perturbed cost is generic, reproduces the tie-broken initial ideal exactly,
and induces a genuine triangulation.  Each candidate costs a full toric
Groebner basis and a subdivision, so keep the instances small.
"""

from toricip.core import IntMatrix
from toricip.groebner import CostOrder, toric_groebner
from toricip.triangulation import regular_subdivision


def lex_realizing_cost(a: IntMatrix, cost):
    """An integer cost realizing (cost, lex tie-break) generically."""
    cost = tuple(int(v) for v in cost)
    gb = toric_groebner(a, CostOrder.from_cost(cost))
    if gb.generic and regular_subdivision(a, cost).is_triangulation:
        return cost
    heads = {b.head for b in gb.elements}
    n = a.n
    for base in (8, 64, 1024):
        w = tuple(base ** (n - 1 - j) for j in range(n))
        scale = sum(w) + 1
        for _ in range(10):
            c2 = tuple(scale * cv + wv for cv, wv in zip(cost, w))
            gb2 = toric_groebner(a, CostOrder.from_cost(c2))
            if gb2.generic and {b.head for b in gb2.elements} == heads:
                if regular_subdivision(a, c2).is_triangulation:
                    return c2
            scale *= 32
    raise RuntimeError("no scale realized the lex refinement")
