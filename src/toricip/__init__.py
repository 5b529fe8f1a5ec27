"""Exact group relaxations of integer programs.

Regular triangulations, toric Groebner bases, standard-pair decompositions,
group relaxations, Hilbert-basis normality tests, and a brute-force geometric
oracle that cross-checks every algebraic result.  All arithmetic is exact.

Importing the package loads none of its modules.  Each exported name is
looked up in its home module on first access (PEP 562), so ``from toricip
import X`` loads only the module of X and what that module imports.
"""

from importlib import import_module

# exported name -> the module that defines it
_HOME = {
    **dict.fromkeys(["IntMatrix", "LatticeBasis", "kernel_lattice_basis", "gcd_maximal_minors",
                     "face_determinant"], "core"),
    **dict.fromkeys(["RegularSubdivision", "regular_subdivision", "optimal_face",
                     "unimodularity_report"], "triangulation"),
    **dict.fromkeys(["CostOrder", "GroebnerBasis", "toric_groebner", "is_generic", "solve_ip"],
                    "groebner"),
    **dict.fromkeys(["MonomialIdeal", "StandardPair", "Decomposition", "initial_ideal",
                     "standard_pair_decomposition", "associated_report", "is_gomory_family",
                     "relaxations_solving"], "stdpairs"),
    **dict.fromkeys(["build_relaxation", "solve_relaxation", "solve_via_standard_pairs"], "relax"),
    **dict.fromkeys(["IneqPolytope", "enumerate_lattice_points", "fiber_solve",
                     "is_standard_polytope", "brute_force_standard_pairs", "width_along",
                     "kannan_bound"], "oracle"),
    **dict.fromkeys(["hilbert_basis", "normality_report", "gomory_cost", "sharp_family"],
                    "hilbert"),
}
__all__ = list(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
