"""Test-only reference for ``hilbert.hilbert_basis``: the route it took before cosets.

Candidates are every generator plus the lattice points of the parallelepiped
of each independent rank-sized generator subset, found by a sweep of the
parallelepiped's corner box (``reference_enum.reference_parallelepiped_points``).
A candidate is kept iff subtracting any other candidate leaves the cone, one
cone LP per ordered pair.  The cone is pointed iff no nonzero x >= 0 has
G x = 0.  Nothing comes from ``hilbert`` (``tests/test_reference_policy.py``),
so the library's cosets and grading order are checked by another route.
"""

from itertools import combinations

from reference_enum import reference_parallelepiped_points
from reference_linalg import rank

from toricip.errors import NotPointed
from toricip.linprog import nonneg_feasible


def _in_cone(gens, x):
    return nonneg_feasible([[g[i] for g in gens] for i in range(len(x))], x)


def reference_hilbert_basis(generators):
    """The fields of ``hilbert_basis(generators)``, (elements, generators); NotPointed on a line."""
    gens = [tuple(g) for g in generators if any(g)]
    if not gens:
        return (), ()
    d = len(gens[0])
    if nonneg_feasible([[g[i] for g in gens] for i in range(d)] + [[1] * len(gens)],
                       [0] * d + [1]):
        raise NotPointed("cone contains a line")
    r = rank(gens)
    cands = set(gens)
    for sub in combinations(gens, r):
        if rank(sub) == r:
            cands.update(reference_parallelepiped_points(sub))
    cands.discard((0,) * d)
    minimal = [x for x in sorted(cands)
               if not any(y != x and _in_cone(gens, tuple(a - b for a, b in zip(x, y)))
                          for y in cands)]
    return tuple(minimal), tuple(gens)
