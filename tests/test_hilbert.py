import random
import sys
import time
from fractions import Fraction

import pytest
from conftest import (
    CENSUS_MATRICES,
    DEGENERATE,
    EX1,
    EX1_COST,
    EX3,
    GFAMILY,
    GFAMILY_COST,
    KNAPSACK,
    LONG_CHAIN,
    LONG_CHAIN_COST,
    NONNORMAL,
    counted_lps,
    face,
    make_instance,
)
from reference_hilbert import reference_hilbert_basis
from reference_normality import reference_normality

from toricip import fibers, hilbert
from toricip.core import IntMatrix, face_determinant, kernel_lattice_basis
from toricip.errors import DomainError, NotDeltaNormal, NotPointed, NotRegular
from toricip.fibers import factor
from toricip.linalg import dot
from toricip.linprog import nonneg_feasible
from toricip.hilbert import (
    HilbertBasis,
    NormalityReport,
    gomory_cost,
    hilbert_basis,
    normality_report,
    sharp_family,
)
from toricip.stdpairs import associated_report, decomposition_for, is_gomory_family
from toricip.triangulation import lex_refinement, regular_subdivision

SHARP3_A = (
    (1, 0, 0, 0, 0, 0, 0, 1, 1, 1),
    (1, 1, 0, 0, 0, 0, 0, 0, 2, 2),
    (1, 0, 1, 0, 0, 0, 0, 2, 0, 2),
    (1, 0, 0, 1, 0, 0, 0, 2, 2, 0),
    (1, 0, 0, 0, 1, 0, 0, 0, 0, 2),
    (1, 0, 0, 0, 0, 1, 0, 0, 2, 0),
    (1, 0, 0, 0, 0, 0, 1, 2, 0, 0),
)
SHARP3_COST = (11, 0, 0, 0, 0, 0, 0, 10, 10, 10)

SHARP3_TABLE = {
    (4, 5, 6, 7, 8, 9, 10): 4, (1, 5, 6, 7, 8, 9, 10): 4, (3, 4, 6, 7, 8, 9, 10): 4,
    (2, 3, 4, 6, 7, 9, 10): 2, (2, 3, 4, 7, 8, 9, 10): 4, (3, 4, 5, 6, 7, 8, 10): 2,
    (2, 3, 4, 5, 6, 7, 10): 1, (2, 4, 5, 6, 7, 9, 10): 2, (2, 3, 6, 7, 9, 10): 1,
    (3, 4, 5, 6, 8, 10): 1, (2, 4, 5, 7, 9, 10): 1, (1, 6, 7, 8, 9, 10): 1,
    (3, 5, 6, 7, 8, 10): 1, (3, 6, 7, 8, 9, 10): 2, (2, 3, 7, 8, 9, 10): 2,
    (5, 6, 7, 8, 9, 10): 1, (4, 5, 6, 7, 8, 9): 1, (2, 4, 7, 8, 9, 10): 2,
    (1, 5, 7, 8, 9, 10): 1, (2, 3, 4, 8, 9, 10): 1, (4, 5, 7, 8, 9, 10): 2,
    (2, 5, 6, 7, 9, 10): 1, (4, 5, 6, 8, 9, 10): 2, (1, 5, 6, 8, 9, 10): 1,
    (3, 4, 6, 8, 9, 10): 2, (6, 7, 8, 9, 10): 1, (7, 8, 9, 10): 1, (8, 9, 10): 1,
}


def test_hilbert_basis_examples():
    assert hilbert_basis([(1, 0), (1, 4)]).elements == (
        (1, 0), (1, 1), (1, 2), (1, 3), (1, 4))
    assert hilbert_basis([(2,), (5,), (8,)]).elements == ((1,),)
    # unimodular simplex cone keeps exactly its generators
    assert set(hilbert_basis([(1, 0), (1, 1)]).elements) == {(1, 0), (1, 1)}


def test_hilbert_basis_runs_one_lp(monkeypatch):
    # parallelepiped points come from Hermite cosets, not from a Fourier-Motzkin
    # plan, and cone membership from the signs of the simplices' inverse rows,
    # which the subdivision walk hands over: the only LP is
    # the validation of the generators as an IntMatrix, whose grading gives the
    # degree order.  One cone LP per test against a kept element made 226 on
    # LONG_CHAIN and 39 on census 4 x 8; a separate grading LP made one more.
    plans = []
    real_plan = fibers.Elimination._plan
    monkeypatch.setattr(fibers.Elimination, "_plan",
                        lambda self: plans.append(self) or real_plan(self))
    calls = counted_lps(monkeypatch)
    orthant = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert hilbert_basis(list(zip(*LONG_CHAIN))).elements == orthant
    assert len(calls) == 1
    calls.clear()
    assert hilbert_basis(list(zip(*CENSUS_MATRICES[1]))).elements
    assert len(calls) == 1 and plans == []


def test_hilbert_basis_reads_any_iterable_of_generators():
    want = hilbert_basis([(1, 0), (0, 1)])
    assert hilbert_basis(iter([(1, 0), (0, 1)])) == want
    assert hilbert_basis(iter(v) for v in ((1, 0), (0, 1))) == want
    assert hilbert_basis(map(list, ((1, 0), (0, 1)))) == want
    assert hilbert_basis(iter([])) == hilbert_basis([]) == HilbertBasis((), ())


def _verdict(call):
    """repr of the HilbertBasis ``call()`` returns, or "NotPointed"."""
    try:
        return repr(call())
    except NotPointed:
        return "NotPointed"


def _assert_hilbert_matches_reference(gens):
    got = _verdict(lambda: hilbert_basis(gens))
    assert got == _verdict(lambda: HilbertBasis(*reference_hilbert_basis(gens))), gens
    return got


# rank-deficient and lower-dimensional generator sets, one with a line
LOWER_DIMENSIONAL = [
    [(2, 4)],
    [(1, 0, 1), (0, 2, 1)],
    [(1, 0, 2), (0, 1, 1), (1, 1, 3), (2, 1, 5)],
    [(1, 1, 0), (2, 2, 0), (1, 0, 0), (0, 0, 0)],
    [(3, 0, 0, 1), (0, 2, 2, 0), (3, 2, 2, 1)],
    [(2, 1, 0, 0), (1, 2, 0, 0), (1, 1, 0, 0), (0, 0, 0, 0)],
    [(1, 2, 3), (-1, -2, -3), (0, 1, 0)],
]


def test_hilbert_basis_matches_the_all_subsets_reference():
    # cosets and the grading order against the corner-box sweep of every rank
    # subset and one cone LP per ordered pair of candidates: the fixtures,
    # census 4 x 7 and 4 x 8, lower-dimensional sets and 240 random sets
    for rows in [EX1, EX3, KNAPSACK, NONNORMAL, GFAMILY, LONG_CHAIN, *CENSUS_MATRICES[1:]]:
        assert _assert_hilbert_matches_reference(list(zip(*rows))) != "NotPointed"
    assert [_assert_hilbert_matches_reference(g) == "NotPointed"
            for g in LOWER_DIMENSIONAL] == [False] * 6 + [True]
    rng = random.Random(26)
    verdicts = []
    for _ in range(240):
        d = rng.randint(1, 3)
        gens = [tuple(rng.randint(-1, 3) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        verdicts.append(_assert_hilbert_matches_reference(gens) == "NotPointed")
    assert 0 < sum(verdicts) < len(verdicts)


def test_hilbert_basis_tests_candidates_in_degree_order():
    # (-2, 4, 1) = 4 (-1, 0, 0) + (0, 2, 1) + 2 (1, 1, 0) comes first in lex
    # order, before any element that reduces it is kept
    gens = [(-1, 0, 0), (-1, 3, 2), (-1, 3, 0), (3, 2, 0)]
    want = ((-1, 0, 0), (-1, 3, 2), (0, 2, 1), (1, 1, 0), (3, 2, 0))
    assert _assert_hilbert_matches_reference(gens) == repr(HilbertBasis(want, tuple(gens)))


def test_hilbert_basis_refines_the_cost_zero_subdivision(monkeypatch):
    # the simplices and inverse rows hilbert_basis walks at cost 0 are those
    # of the lex refinement of the subdivision at cost 0
    walked = []
    real = hilbert._lex_feasible_bases

    def recorded(m, cost):
        walk = list(real(m, cost))
        walked.append((m, {(sigma, rows) for sigma, rows, _ in walk}))
        return iter(walk)

    monkeypatch.setattr(hilbert, "_lex_feasible_bases", recorded)

    def assert_walks_the_refinement(gens):
        hilbert_basis(gens)
        (m, cells), = walked
        walked.clear()
        refined = lex_refinement(regular_subdivision(m, (0,) * m.n))
        assert cells == set(refined.simplex_inverses), gens
        return m

    for rows in [EX1, EX3, KNAPSACK, NONNORMAL, GFAMILY, LONG_CHAIN, *CENSUS_MATRICES]:
        assert assert_walks_the_refinement(list(zip(*rows))) == IntMatrix(rows)
    for gens in LOWER_DIMENSIONAL[:-1]:
        assert_walks_the_refinement(gens)


def test_hilbert_basis_is_minimal_and_generating():
    gens = [(2, 1), (1, 3)]
    hb = hilbert_basis(gens).elements
    # generating: every small cone point is a combination of basis elements
    semigroup = factor(list(zip(*hb)))
    for x in range(5):
        for y in range(5):
            if nonneg_feasible(list(zip(*gens)), (x, y)):
                assert semigroup.first((x, y)) is not None
    # minimal: no element is a combination of the others
    for i, h in enumerate(hb):
        rest = [x for j, x in enumerate(hb) if j != i]
        assert factor(list(zip(*rest))).first(h) is None


def _counted_factor(monkeypatch, skip=()):
    """Count every factorization the library makes outside the modules ``skip``.

    The kernel-basis cache starts cold.
    """
    calls = []
    real = fibers.factor

    def counted(rows):
        calls.append(rows)
        return real(rows)

    for name, module in list(sys.modules.items()):
        if name.startswith("toricip") and name not in skip and getattr(module, "factor", None) is real:
            monkeypatch.setattr(module, "factor", counted)
    kernel_lattice_basis.cache_clear()
    return calls


def test_normality_report_makes_no_factorization(monkeypatch):
    # every Hilbert-basis element is looked up among the columns: no column
    # set is factored, and no fiber is searched, for the matrix, a face or a
    # subset; the factorization each IntMatrix validation makes is not counted
    calls = _counted_factor(monkeypatch, skip=("toricip.core",))
    for name in ("points", "first"):
        real = getattr(fibers.Factorization, name)

        def searched(self, *args, real=real, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(fibers.Factorization, name, searched)
    a = IntMatrix(GFAMILY)
    rep = normality_report(a, [face(1, 2, 6), face(2, 3, 6)], check_super=True)
    assert rep.normal and rep.per_face == ((face(1, 2, 6), True), (face(2, 3, 6), False))
    assert rep.supernormal is False
    assert calls == []


def test_gomory_cost_reads_the_cached_factorization(monkeypatch):
    # the residue fibers come from the factorization that validating A made;
    # gomory_cost factors A no second time
    calls = _counted_factor(monkeypatch)
    a = IntMatrix(GFAMILY)
    gomory_cost(a, [face(1, 2, 6)])
    assert calls.count(a.entries) == 1


def _triangulated(a, rng, tries=20):
    """A regular triangulation of A from a random cost, or None when ``tries`` costs give none."""
    for _ in range(tries):
        sub = regular_subdivision(a, tuple(rng.randint(0, 20) for _ in range(a.n)))
        if sub.is_triangulation:
            return sub
    return None


def _random_matrices(count, seed=5):
    """(A, a triangulation or None): d 1-3, n <= 6, entries 0-4."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 3)
        n = rng.randint(d, 6)
        try:
            a = IntMatrix([[rng.randint(0, 4) for _ in range(n)] for _ in range(d)])
        except DomainError:
            continue
        out.append((a, _triangulated(a, rng, tries=1)))
    return out


def _assert_matches_reference(a, delta, check_super, as_list=False):
    faces = None if delta is None else list(delta.maximal_faces)
    want = NormalityReport(*reference_normality(a, faces, check_super))
    got = normality_report(a, faces if as_list else delta, check_super)
    assert got == want and repr(got) == repr(want), (a, faces)
    return got


def test_normality_report_matches_the_fiber_search_reference():
    # the Hilbert-basis lookup against one cone LP per column and one fiber
    # search per element, on the fixtures, the census matrices that reach a
    # Hilbert basis (not the 7 x 12) and 200 random matrices
    rng = random.Random(7)
    for a, cost in DEGENERATE.values():
        _assert_matches_reference(a, regular_subdivision(a, cost), a.n <= 6)
    for rows, cost in [(EX1, EX1_COST), (EX3, None), (KNAPSACK, None), (NONNORMAL, None),
                       (GFAMILY, GFAMILY_COST), (LONG_CHAIN, LONG_CHAIN_COST)]:
        a = IntMatrix(rows)
        _assert_matches_reference(a, None, True)
        delta = _triangulated(a, rng) if cost is None else regular_subdivision(a, cost)
        _assert_matches_reference(a, delta, True)
        _assert_matches_reference(a, delta, False, as_list=True)
    for rows in CENSUS_MATRICES[1:]:
        a = IntMatrix(rows)
        for _ in range(2):
            delta = _triangulated(a, rng)
            assert delta is not None
            _assert_matches_reference(a, delta, False)
    kinds = {_assert_matches_reference(a, delta, True).normal for a, delta in _random_matrices(200)}
    assert kinds == {True, False}


# the first five generic costs with a triangulation that random.Random(4242)
# draws for census 7 x 12, as the census check of the acceptance suite draws them
CENSUS7X12_COSTS = (
    (55, 60, 26, 8, 1, 39, 24, 24, 20, 17, 11, 32),
    (31, 1, 52, 30, 10, 9, 36, 48, 43, 30, 7, 1),
    (8, 32, 9, 11, 21, 7, 10, 45, 15, 55, 44, 36),
    (42, 40, 14, 58, 28, 3, 58, 17, 21, 0, 20, 57),
    (10, 33, 21, 43, 22, 38, 25, 25, 20, 47, 19, 50),
)


def test_census7x12_is_normal_and_delta_normal():
    # each cost's triangulation has 22 unimodular cells, so every cell's
    # columns are its Hilbert basis and they cover the cone: the columns
    # are its Hilbert basis too.  One Fourier-Motzkin system per 7-column
    # subset ran out of memory here.
    a = IntMatrix(CENSUS_MATRICES[0])
    cols = [a.column(j) for j in range(a.n)]
    cells = []
    for cost in CENSUS7X12_COSTS:
        delta = regular_subdivision(a, cost)
        assert len(delta.maximal_faces) == 22
        assert all(face_determinant(a, f) == 1 for f in delta.maximal_faces)
        cells += delta.maximal_faces
    start = time.process_time()
    rep = normality_report(a, cells)
    assert rep.normal and rep.delta_normal and len(rep.per_face) == 110
    assert hilbert_basis(cols).elements == tuple(sorted(cols))
    assert time.process_time() - start < 5  # about 1.1 CPU s on one 2-CPU host


def test_not_pointed():
    with pytest.raises(NotPointed):
        hilbert_basis([(1, 0), (-1, 0), (0, 1)])


def test_nonnormal_witness():
    rep = normality_report(IntMatrix(NONNORMAL))
    assert not rep.normal
    assert rep.witness == (1, 2)


def test_gfamily_delta_normality():
    a = IntMatrix(GFAMILY)
    # coarse triangulation {{1,2,6}}: Delta-normal
    rep = normality_report(a, [face(1, 2, 6)])
    assert rep.normal and rep.delta_normal
    # the Gomory-family triangulation of the running example is not
    from conftest import GFAMILY_COST
    from toricip.triangulation import regular_subdivision

    delta = regular_subdivision(a, GFAMILY_COST)
    rep2 = normality_report(a, delta)
    assert rep2.normal and not rep2.delta_normal
    flags = dict(rep2.per_face)
    assert not flags[face(1, 2, 5)]  # (1,2,2) is missing from the columns


def test_delta_normal_implies_normal_flag_consistency():
    a = IntMatrix(GFAMILY)
    rep = normality_report(a, [face(1, 2, 6)])
    assert (not rep.delta_normal) or rep.normal


def test_supernormal_graded_chain():
    rep = normality_report(IntMatrix(((1, 1, 1), (0, 1, 2))), check_super=True)
    assert rep.supernormal
    rep2 = normality_report(IntMatrix(GFAMILY), check_super=True)
    assert not rep2.supernormal  # fails on the cone of sigma_1


def test_supernormal_implies_delta_normal_for_sampled_triangulations():
    import random

    from toricip.groebner import is_generic
    from toricip.triangulation import regular_subdivision

    a = IntMatrix(((1, 1, 1), (0, 1, 2)))  # supernormal graded chain
    rng = random.Random(2)
    seen = set()
    while len(seen) < 2:
        c = tuple(rng.randint(0, 9) for _ in range(3))
        if not is_generic(a, c)[0]:
            continue
        delta = regular_subdivision(a, c)
        if not delta.is_triangulation or delta.maximal_faces in seen:
            continue
        seen.add(delta.maximal_faces)
        assert normality_report(a, delta).delta_normal


def test_gomory_cost_fixture():
    a = IntMatrix(GFAMILY)
    res = gomory_cost(a, [face(1, 2, 6)])
    roots = sorted(p.root for p in res.pairs)
    e = lambda i: tuple(1 if j == i - 1 else 0 for j in range(6))
    assert roots == sorted([(0,) * 6, e(3), e(4), e(5)])
    delta, _, decomp, _ = decomposition_for(a, res.cost)
    assert set(delta.maximal_faces) == {face(1, 2, 6)}
    assert is_gomory_family(decomp, delta)
    assert {(p.root, p.face) for p in decomp.pairs} == {
        (p.root, p.face) for p in res.pairs}


def test_gomory_cost_tests_the_cells_alone(monkeypatch):
    # Delta-normality asks for the Hilbert basis of each cell only, not for
    # the whole matrix's, which normality_report also computes
    cones = []

    def counted(gens):
        cones.append(tuple(gens))
        return hilbert_basis(gens)
    monkeypatch.setattr(hilbert, "hilbert_basis", counted)
    a = IntMatrix(GFAMILY)
    gomory_cost(a, [face(1, 2, 6)])
    assert cones == [tuple(a.column(j) for j in face(1, 2, 6))]


def test_gomory_cost_unimodular_and_graded():
    from conftest import EX1

    ex1 = IntMatrix(EX1)
    res = gomory_cost(ex1, [face(1, 2), face(2, 3), face(3, 4)])
    assert sorted(p.root for p in res.pairs) == [(0, 0, 0, 0)] * 3

    chain = IntMatrix(((1, 1, 1), (0, 1, 2)))
    res2 = gomory_cost(chain, [face(1, 3)])
    assert sorted((p.root, p.face) for p in res2.pairs) == [
        ((0, 0, 0), face(1, 3)), ((0, 1, 0), face(1, 3))]


def test_gomory_cost_needs_the_symbolic_order():
    # the residue optima are taken under (lifted cost, ray deficit, lex); on
    # this input the plain lex minimum picks other roots, and no scaling of
    # the lifted cost realizes those
    a = IntMatrix(((2, 3, 3, 1), (1, 2, 1, 0)))
    res = gomory_cost(a, [face(2, 3), face(3, 4)])
    assert res.cost == (0, 3, -5, -1)
    e = lambda k: (k, 0, 0, 0)
    assert res.residue_roots == ((face(2, 3), (e(0), e(1), e(2))), (face(3, 4), (e(0),)))
    assert sorted((p.root, p.face) for p in res.pairs) == [
        (e(0), face(2, 3)), (e(0), face(3, 4)), (e(1), face(2, 3)), (e(2), face(2, 3))]
    delta, _, decomp, refined = decomposition_for(a, res.cost)
    assert not refined and set(delta.maximal_faces) == {face(2, 3), face(3, 4)}
    assert is_gomory_family(decomp, delta)
    assert set(decomp.pairs) == set(res.pairs)


def _cell_lift(sub):
    """The lift column by column: c_j on a cell, else y_sigma . a_j for the first cell holding a_j.

    The search ``gomory_cost`` made before it read the lift off the certificates.
    """
    a = sub.matrix
    in_cells = {j for f in sub.maximal_faces for j in f}
    certificates = dict(zip(sub.maximal_faces, sub.certificates))
    lifted = []
    for j in range(a.n):
        col = a.column(j)
        if j in in_cells:
            lifted.append(Fraction(sub.cost[j]))
            continue
        cell = next(f for f in sub.maximal_faces
                    if nonneg_feasible([[a.column(i)[r] for i in f] for r in range(a.d)], col))
        lifted.append(Fraction(dot(col, certificates[cell])))
    return lifted


def test_certificate_lift_matches_the_per_cell_search():
    from toricip.triangulation import regular_subdivision

    rng = random.Random(19)
    kinds = set()
    matrices = [make_instance(seed)[0] for seed in range(0, 60, 4)]
    matrices += [IntMatrix(m) for m in (EX1, GFAMILY, NONNORMAL)]
    for a in matrices:
        for _ in range(4):
            sub = regular_subdivision(a, tuple(rng.randint(-5, 9) for _ in range(a.n)))
            kinds.add(sub.is_triangulation)
            assert hilbert._lift(sub) == _cell_lift(sub)
    assert kinds == {True, False}


def test_gomory_cost_rejections():
    a = IntMatrix(GFAMILY)
    with pytest.raises(NotRegular):
        gomory_cost(a, [face(1, 2, 5)])  # does not cover cone(A)
    with pytest.raises(NotDeltaNormal):
        gomory_cost(IntMatrix(NONNORMAL), [face(1, 4)])


def test_sharp_family_matrices_match_print():
    a, cost = sharp_family(3)
    assert a.entries == SHARP3_A
    assert cost == SHARP3_COST
    a2, cost2 = sharp_family(2)
    assert a2.d == 3 and a2.n == 5
    with pytest.raises(ValueError):
        sharp_family(1)


def test_sharp_family_m3_table_and_chain():
    a, cost = sharp_family(3)
    delta, gb, decomp, refined = decomposition_for(a, cost)
    assert refined  # the printed cost needs the lex tie-break
    mults = {tuple(i + 1 for i in f): v for f, v in decomp.multiplicities.items()}
    assert mults == SHARP3_TABLE
    rep = associated_report(decomp, delta)
    assert rep.max_chain_length == 4 == 2**3 - (3 + 1)
    # the asterisked chain of the published table is present
    chain = [(8, 9, 10), (7, 8, 9, 10), (6, 7, 8, 9, 10),
             (5, 6, 7, 8, 9, 10), (4, 5, 6, 7, 8, 9, 10)]
    assoc = set(rep.associated_sets)
    for t in chain:
        assert face(*t) in assoc
    for small, big in zip(chain, chain[1:]):
        assert set(small) < set(big)


def test_sharp_family_m2_chain():
    a, cost = sharp_family(2)
    delta, _, decomp, _ = decomposition_for(a, cost)
    rep = associated_report(decomp, delta)
    assert rep.max_chain_length == 1 == 2**2 - (2 + 1)


def test_sharp_family_m4_shape():
    # construction-only smoke: the full decomposition is beyond desk scale
    a, cost = sharp_family(4)
    assert a.d == 15 and a.n == 19
    assert all(v >= 0 for row in a.entries for v in row)
    assert len(cost) == 19


# the ten Hilbert-basis elements of sharp m=4's cone that are not among its 19 columns
SHARP4_HILBERT_EXTRA = (
    (1, 1, 1, 2, 2, 0, 1, 1, 1, 1, 2, 0, 0, 1, 1), (1, 1, 2, 1, 2, 1, 0, 1, 1, 2, 1, 0, 1, 0, 1),
    (1, 1, 2, 2, 1, 1, 1, 0, 2, 1, 1, 1, 0, 0, 1), (1, 2, 1, 1, 2, 1, 1, 2, 0, 1, 1, 0, 1, 1, 0),
    (1, 2, 1, 2, 1, 1, 2, 1, 1, 0, 1, 1, 0, 1, 0), (1, 2, 2, 1, 1, 2, 1, 1, 1, 1, 0, 1, 1, 0, 0),
    (2, 2, 3, 3, 3, 2, 2, 2, 3, 3, 3, 1, 1, 1, 2), (2, 3, 2, 3, 3, 2, 3, 3, 2, 2, 3, 1, 1, 2, 1),
    (2, 3, 3, 2, 3, 3, 2, 3, 2, 3, 2, 1, 2, 1, 1), (2, 3, 3, 3, 2, 3, 3, 2, 3, 2, 2, 2, 1, 1, 1),
)


def test_sharp4_hilbert_basis_is_fast():
    # the lex refinement of the one cost-0 cell and its 100 simplices' inverse
    # rows come from one walk each: about 0.3 CPU s on one 2-CPU host
    a, _ = sharp_family(4)
    cols = [a.column(j) for j in range(a.n)]
    start = time.process_time()
    elements = hilbert_basis(cols).elements
    assert time.process_time() - start < 1.5
    assert len(elements) == 29
    assert elements == tuple(sorted({*cols, *SHARP4_HILBERT_EXTRA}))
