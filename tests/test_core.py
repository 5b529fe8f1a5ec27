import random
import sys
from fractions import Fraction

import pytest
import reference_linalg
from conftest import EX1, EX1_COST, KNAPSACK, LONG_CHAIN, face
from reference_linprog import reference_grading

from toricip import linalg
from toricip.core import (
    IntMatrix,
    face_determinant,
    gcd_maximal_minors,
    grading,
    kernel_lattice_basis,
)
from toricip.errors import BadIndex, ParseError, RankDeficient, UnboundedFamily
from toricip.fibers import factor
from toricip.groebner import CostOrder, solve_ip
from toricip.oracle import fiber_solve
from toricip.relax import build_relaxation
from toricip.triangulation import regular_subdivision


def test_rejects_rank_deficient():
    with pytest.raises(RankDeficient):
        IntMatrix(((1, 2), (2, 4)))


@pytest.mark.parametrize("bad", [2.7, 2.0, True, Fraction(1, 2), Fraction(4), "3", None])
def test_rejects_non_integer_entries(bad):
    with pytest.raises(ParseError, match="not an integer"):
        IntMatrix(((bad, 5, 8),))


def test_rejects_unbounded_family():
    # kernel of [1 -1] contains (1,1) >= 0
    with pytest.raises(UnboundedFamily):
        IntMatrix(((1, -1),))
    # zero column is the same defect
    with pytest.raises(UnboundedFamily):
        IntMatrix(((1, 0, 0), (0, 1, 0)))


def test_a_valid_matrix_keeps_its_grading_uncompared():
    # and the factorization whose pivot count gave the rank, kept the same way
    a = IntMatrix(LONG_CHAIN)
    assert all(linalg.dot(a.grading, a.column(j)) >= 1 for j in range(a.n))
    assert a.fibers == factor(a.entries) and a.fibers.rank == a.d
    assert a == IntMatrix(LONG_CHAIN) and hash(a) == hash((a.entries,))
    assert "grading" not in repr(a) and "fibers" not in repr(a)


@pytest.mark.parametrize("seed", range(6))
def test_grading_matches_the_minimizing_lp_reference(seed):
    # the Farkas ray of phase 1 against the minimizing LP it replaced: the
    # same verdict, and every ray a grading; zero columns and cones with a
    # line are among the 500 systems of each seed
    rng = random.Random(seed)
    pointed = 0
    for _ in range(500):
        d, n = rng.randint(1, 4), rng.randint(1, 7)
        cols = [tuple(rng.randint(-2, 4) for _ in range(d)) for _ in range(n)]
        y = grading(cols)
        assert (y is None) == (reference_grading(cols) is None), cols
        if y is not None:
            pointed += 1
            assert all(type(v) is int for v in y)
            assert all(linalg.dot(y, g) >= 1 for g in cols), (cols, y)
    assert 200 < pointed < 450


def same_lattice(cols_a, cols_b):
    """Columns generate the same lattice iff each expresses integrally in the other."""

    def contained(xs, ys):
        rows = [[y[i] for y in ys] for i in range(len(xs[0]))]
        for x in xs:
            sol = reference_linalg.solve_exact(rows, x)
            if sol is None or any(v.denominator != 1 for v in sol):
                return False
        return True

    return contained(cols_a, cols_b) and contained(cols_b, cols_a)


def test_knapsack_kernel_matches_paper_lattice():
    a = IntMatrix(KNAPSACK)
    b = kernel_lattice_basis(a)
    assert same_lattice(b.columns(), [(-1, 2, -1), (4, 0, -1)])


def test_square_matrix_has_empty_kernel():
    a = IntMatrix(((1, 0), (0, 1)))
    b = kernel_lattice_basis(a)
    assert b.corank == 0 and b.columns() == []


def test_kernel_verified_by_hermite_oracle():
    a = IntMatrix(EX1)
    b = kernel_lattice_basis(a)
    assert b.corank == 2
    for col in b.columns():
        assert all(v == 0 for v in a.apply(col))
    assert reference_linalg.gcd_of_minors(b.matrix, b.corank) == 1


def test_unsaturated_kernel_basis_is_refused(monkeypatch):
    # doubling one kernel column of U keeps A B = 0 but spans an index-2
    # sublattice, which the saturation check must refuse
    from toricip import core
    from toricip.fibers import Factorization, factor

    def doubled(rows):
        fac = factor(rows)
        k = fac.rank
        u = tuple(r[:k] + (2 * r[k],) + r[k + 1 :] for r in fac.u)
        return Factorization(fac.rows, fac.h, u, fac.pivots, fac.basis, fac.elimination)
    monkeypatch.setattr(core, "factor", doubled)
    with pytest.raises(AssertionError, match="not saturated"):
        kernel_lattice_basis.__wrapped__(IntMatrix(EX1))


def test_one_column_hermite_reduction_serves_every_reader(monkeypatch):
    # validation reduces A's rows once; the kernel basis, the lattice index
    # and the fibers of the oracle, the normal-form solve and the relaxation
    # all read that reduction, from a cold kernel-basis cache
    real = linalg.column_hermite
    calls = []

    def counted(rows, n):
        calls.append(tuple(map(tuple, rows)))
        return real(rows, n)

    for name, module in list(sys.modules.items()):
        if name.startswith("toricip") and getattr(module, "column_hermite", None) is real:
            monkeypatch.setattr(module, "column_hermite", counted)
    kernel_lattice_basis.cache_clear()
    a = IntMatrix(EX1)
    kernel_lattice_basis(a)
    assert gcd_maximal_minors(a) == 1
    delta = regular_subdivision(a, EX1_COST)
    b = a.apply((1, 0, 2, 1))
    x = fiber_solve(a, EX1_COST, b)
    assert solve_ip(a, CostOrder.from_cost(EX1_COST), b) == x
    build_relaxation(a, EX1_COST, delta, delta.maximal_faces[0], b)
    assert calls.count(a.entries) == 1


def test_gcd_maximal_minors():
    assert gcd_maximal_minors(IntMatrix(LONG_CHAIN)) == 5
    assert gcd_maximal_minors(IntMatrix(((1, 0), (0, 1)))) == 1
    assert gcd_maximal_minors(IntMatrix(KNAPSACK)) == 1


def test_face_determinant():
    lc = IntMatrix(LONG_CHAIN)
    assert face_determinant(lc, face(1, 3, 4)) == 25
    assert face_determinant(IntMatrix(EX1), face(1, 2)) == 1
    # repeated direction: singular submatrix
    rep = IntMatrix(((1, 1, 2), (0, 1, 0)))
    assert face_determinant(rep, (0, 2)) == 0
    with pytest.raises(BadIndex):
        face_determinant(lc, (0, 1))
    with pytest.raises(BadIndex):
        face_determinant(lc, (0, 1, 9))


def test_gcd_divides_every_face_determinant():
    from itertools import combinations

    lc = IntMatrix(LONG_CHAIN)
    g = gcd_maximal_minors(lc)
    for sigma in combinations(range(lc.n), lc.d):
        assert face_determinant(lc, sigma) % g == 0


def test_matrix_file_round_trip(tmp_path):
    from toricip.fileio import read_matrix

    a = IntMatrix(LONG_CHAIN)
    p = tmp_path / "a.mat"
    p.write_text(str(a) + "\n")
    assert read_matrix(p) == a
