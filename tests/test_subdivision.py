"""The subdivision walk against the scan over every candidate basis.

``regular_subdivision`` walks the lex-feasible bases of the perturbed cost
c + eps (1, t, t^2, ...) in integers.  Every test here holds the whole
:class:`~toricip.triangulation.RegularSubdivision` (faces, certificates and
flag) equal to ``tests/reference_subdivision.py``, which solves all C(n, d)
bases in Fractions.  ``lex_refinement`` keeps the simplices of that walk, so
the bases one walk visits, and the whole refinement, are held equal to the
Cramer scan of ``tests/reference_refinement.py``.  The walk runs once per
subdivision and once per Hilbert basis, and nothing walks again.  Sharp m=4 is
compared with the scan (about 7 s) only in ``python tests/sharp4_walk.py``.

The walk also hands each simplex its inverse rows.  Those are checked with no
reference, as A_sigma^{-1} up to a positive factor per row, and against the
cofactor adjugate of ``tests/reference_linalg.py``.
"""

import random
import sys
import time
from fractions import Fraction

import pytest
from conftest import (CENSUS_COSTS, CENSUS_MATRICES, DEGENERATE, EX1, EX1_COST, GFAMILY, LONG_CHAIN,
                      LONG_CHAIN_COST, NONNORMAL, counted_lps)
from reference_linalg import adjugate
from reference_refinement import reference_lex_refinement
from reference_subdivision import reference_subdivision

from toricip import triangulation
from toricip.core import IntMatrix
from toricip.errors import DomainError
from toricip.hilbert import hilbert_basis, sharp_family
from toricip.linalg import det_int, dot
from toricip.relax import solve_via_standard_pairs
from toricip.stdpairs import decomposition_for
from toricip.triangulation import (_lex_feasible_bases, _subdivision, cached_subdivision, lex_refinement,
                                   optimal_face, regular_subdivision)


def _assert_walk_matches_scan(a, cost):
    delta = regular_subdivision(a, cost)
    want = reference_subdivision(a, cost)
    assert delta == want, (a, cost)
    assert all(type(v) is Fraction for y in delta.certificates for v in y)
    refined = reference_lex_refinement(delta)
    assert lex_refinement(delta) == refined, (a, cost)
    visited = sorted(sigma for sigma, _, _ in _lex_feasible_bases(a, delta.cost))
    assert visited == list(refined.maximal_faces), (a, cost)
    return delta


def test_walk_matches_the_scan_on_acceptance_seeds(acceptance_pipelines):
    for inst in acceptance_pipelines:
        assert inst["delta"] == _assert_walk_matches_scan(inst["a"], inst["c"]), inst["seed"]


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_walk_matches_the_scan_on_degenerate_costs(name):
    _assert_walk_matches_scan(*DEGENERATE[name])


@pytest.mark.parametrize("k", range(len(CENSUS_MATRICES)))
def test_walk_matches_the_scan_on_census_costs(k):
    a = IntMatrix(CENSUS_MATRICES[k])
    for cost in CENSUS_COSTS[k]:
        assert _assert_walk_matches_scan(a, cost).is_triangulation


@pytest.mark.parametrize("m", [2, 3])
def test_walk_matches_the_scan_on_the_sharp_family(m):
    _assert_walk_matches_scan(*sharp_family(m))


@pytest.mark.parametrize("seed", range(10))
def test_walk_matches_the_scan_on_seeded_costs(seed):
    # small entries and costs in -2..3, so ratio tests tie and some cells are not simplices
    rng = random.Random(seed)
    cases = fat = 0
    while cases < 32:
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, 7)
        try:
            a = IntMatrix([[rng.randint(0, 3) for _ in range(n)] for _ in range(d)])
        except DomainError:
            continue
        delta = _assert_walk_matches_scan(a, [rng.randint(-2, 3) for _ in range(n)])
        cases += 1
        fat += not delta.is_triangulation
    assert fat >= 3  # 4-6 of each 32 have a cell that is not a simplex


def test_sharp4_walk_is_fast_and_exact():
    # 16 cells from 3,876 candidate bases, which the scan solves in about 7 s
    a, cost = sharp_family(4)
    start = time.process_time()
    delta = _subdivision.__wrapped__(a, cost)
    assert time.process_time() - start < 2.0
    assert len(delta.maximal_faces) == 16 and not delta.is_triangulation
    for cell, y in zip(delta.maximal_faces, delta.certificates):
        slack = [cost[j] - dot(a.column(j), y) for j in range(a.n)]
        assert [j for j, s in enumerate(slack) if s == 0] == list(cell)
        assert min(slack) == 0


def test_a_subdivision_runs_no_simplex(acceptance_pipelines, monkeypatch):
    # the walk starts from the slack basis at a dual point on the grading, so
    # past the matrix's validation a subdivision runs no phase 1 and no simplex
    cases = [(inst["a"], inst["c"]) for inst in acceptance_pipelines]
    a, _ = DEGENERATE["long-chain-zero"]
    cases.append((a, (-7, 3, -1, 0, -12, 5)))
    calls = counted_lps(monkeypatch, ("_phase1", "_simplex"))
    cached_subdivision.cache_clear()
    for a, c in cases:
        regular_subdivision(a, c)
        assert not calls, (a, c)


def _assert_shift_invariant(a, cost, rng):
    """Delta_c = Delta_{c + wA} for random w, with every certificate moved by exactly w."""
    delta = regular_subdivision(a, cost)
    for _ in range(3):
        w = [rng.randint(-5, 5) for _ in range(a.d)]
        shifted = regular_subdivision(a, [c + dot(w, a.column(j)) for j, c in enumerate(cost)])
        assert shifted.maximal_faces == delta.maximal_faces, (a, cost, w)
        assert shifted.is_triangulation == delta.is_triangulation, (a, cost, w)
        assert shifted.simplex_inverses == delta.simplex_inverses, (a, cost, w)
        assert shifted.simplex_cells == delta.simplex_cells, (a, cost, w)
        for y, moved in zip(delta.certificates, shifted.certificates):
            assert [u - v for u, v in zip(moved, y)] == w, (a, cost, w)


def test_subdivision_is_invariant_under_cost_shifts_on_acceptance_seeds(acceptance_pipelines):
    rng = random.Random(0)
    for inst in acceptance_pipelines:
        _assert_shift_invariant(inst["a"], inst["c"], rng)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_subdivision_is_invariant_under_cost_shifts_on_degenerate_costs(name):
    _assert_shift_invariant(*DEGENERATE[name], random.Random(name))


def _assert_inverse_rows(delta):
    """Each (sigma, rows) of ``delta`` and of its refinement is A_sigma^{-1} up to row factors."""
    a = delta.matrix
    refined = lex_refinement(delta)
    for sub in (delta, refined):
        assert sorted(sigma for sigma, _ in sub.simplex_inverses) == list(refined.maximal_faces)
        for sigma, rows in sub.simplex_inverses:
            minor = a.columns(sigma)
            det = det_int(minor)
            # |det| A_sigma^{-1}, the adjugate times the sign of the determinant
            signed = [[v if det > 0 else -v for v in row] for row in adjugate(minor)]
            for t, row in enumerate(rows):
                products = [dot(row, a.column(j)) for j in sigma]
                scale = products[t]
                assert scale > 0 and not any(products[:t] + products[t + 1:]), (sigma, t)
                assert [abs(det) * v for v in row] == [scale * v for v in signed[t]], (sigma, t)
    return len(refined.maximal_faces)


def test_inverse_rows_on_acceptance_seeds(acceptance_pipelines):
    assert sum(_assert_inverse_rows(inst["delta"]) for inst in acceptance_pipelines) > 150


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_inverse_rows_on_degenerate_costs(name):
    _assert_inverse_rows(regular_subdivision(*DEGENERATE[name]))


@pytest.mark.parametrize("k", range(len(CENSUS_MATRICES)))
def test_inverse_rows_on_census_costs(k):
    a = IntMatrix(CENSUS_MATRICES[k])
    for cost in CENSUS_COSTS[k]:
        _assert_inverse_rows(regular_subdivision(a, cost))


@pytest.mark.parametrize("m", [2, 3])
def test_inverse_rows_on_the_sharp_family(m):
    a, cost = sharp_family(m)
    _assert_inverse_rows(regular_subdivision(a, cost))
    _assert_inverse_rows(regular_subdivision(a, (0,) * a.n))


def test_the_walk_runs_once_per_subdivision_and_per_hilbert_basis(monkeypatch):
    # a subdivision keeps its walk's simplices, so refining it, reading its
    # inverses, its optimal faces and its pair scan walk nothing more
    walks = []
    real = triangulation._lex_feasible_bases

    def counted(*args):
        walks.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):  # every module that imports the walk
        if name.startswith("toricip") and getattr(module, "_lex_feasible_bases", None) is real:
            monkeypatch.setattr(module, "_lex_feasible_bases", counted)
    cached_subdivision.cache_clear()
    cases = [DEGENERATE[name] for name in sorted(DEGENERATE)]
    cases += [(IntMatrix(EX1), EX1_COST), (IntMatrix(LONG_CHAIN), LONG_CHAIN_COST)]
    for a, c in cases:
        misses = cached_subdivision.cache_info().misses
        delta = regular_subdivision(a, c)
        assert regular_subdivision(a, c) is delta
        assert len(walks) == 1 == cached_subdivision.cache_info().misses - misses, (a, c)
        refined = lex_refinement(delta)
        assert delta.simplex_inverses and refined.simplex_inverses
        _, _, decomp, _ = decomposition_for(a, c)
        b = a.apply((1,) * a.n)
        optimal_face(refined, b)
        solve_via_standard_pairs(decomp, a, b)
        assert decomp.pair_scan
        assert len(walks) == 1, (a, c)
        walks.clear()
    for rows in [EX1, NONNORMAL, GFAMILY, LONG_CHAIN, CENSUS_MATRICES[2]]:
        hilbert_basis(list(zip(*rows)))
        assert len(walks) == 1, rows
        walks.clear()
