"""Test-only reference for ``hilbert.normality_report``: one fiber search per Hilbert-basis element.

A cone passes when the columns of A inside it generate its lattice points.
The reference finds those columns with one cone LP each
(``linprog.nonneg_feasible``), factors them, and asks the factorization for a
fiber point of every element of the cone's Hilbert basis; the first element
with an empty fiber is the witness.  ``normality_report`` only looks each
element up among the columns; the tests hold the two equal.  From
``hilbert`` only ``hilbert_basis`` is used (``tests/test_reference_policy.py``).
"""

from itertools import combinations

from toricip.fibers import factor
from toricip.hilbert import hilbert_basis
from toricip.linprog import nonneg_feasible


def _in_cone(gens, x):
    return nonneg_feasible([[g[i] for g in gens] for i in range(len(x))], x)


def _first_unreached(cols, gens):
    """The first Hilbert-basis element of cone(gens) outside the semigroup N{cols}, or None."""
    fac = factor(list(zip(*cols)))
    return next((h for h in hilbert_basis(gens).elements if fac.first(h) is None), None)


def _cone_normal(a, sub):
    """Do the columns of A inside the cone of the columns ``sub`` generate its lattice points?"""
    gens = [a.column(j) for j in sub]
    inside = [a.column(j) for j in range(a.n) if _in_cone(gens, a.column(j))]
    return _first_unreached(inside, gens) is None


def reference_normality(a, faces=None, check_super=False):
    """The fields of ``normality_report(a, faces, check_super)`` in order, by fiber searches.

    ``faces`` is None or a list of sorted 0-based faces.  Supernormality
    tries every nonempty column subset, duplicates included.
    """
    cols = [a.column(j) for j in range(a.n)]
    witness = _first_unreached(cols, cols)
    per_face = tuple((f, _cone_normal(a, f)) for f in faces or ())
    delta_normal = None if faces is None else all(flag for _, flag in per_face)
    supernormal = None
    if check_super:
        supernormal = all(_cone_normal(a, sub) for size in range(1, a.n + 1)
                          for sub in combinations(range(a.n), size))
    return witness is None, witness, delta_normal, per_face, supernormal
