import random

import pytest
from conftest import (
    DEGENERATE,
    EX1,
    EX1_COST,
    EX2_COST,
    EX3,
    LONG_CHAIN,
    LONG_CHAIN_COST,
    face,
    faces_1based,
)
from reference_refinement import lex_realizing_cost
from reference_solve import in_cone, reference_optimal_face, reference_reduced_cost

from toricip.core import IntMatrix, face_determinant, gcd_maximal_minors
from toricip.errors import Degenerate, DomainError, NotAFace, OutsideCone, ParseError
from toricip.groebner import CostOrder, toric_groebner
from toricip.linalg import dot
from toricip.triangulation import (
    lex_refinement,
    optimal_face,
    regular_subdivision,
    unimodularity_report,
)


def test_example_triangulations():
    d1 = regular_subdivision(IntMatrix(EX1), EX1_COST)
    assert faces_1based(d1.maximal_faces) == [(1, 2), (2, 3), (3, 4)]
    assert d1.is_triangulation

    d2 = regular_subdivision(IntMatrix(EX1), EX2_COST)
    assert faces_1based(d2.maximal_faces) == [(1, 3), (3, 4)]
    assert face(2) not in d2.faces()

    d3 = regular_subdivision(IntMatrix(EX3), EX1_COST)
    assert faces_1based(d3.maximal_faces) == [(1, 2), (2, 3), (3, 4)]


def test_long_chain_triangulation():
    d = regular_subdivision(IntMatrix(LONG_CHAIN), LONG_CHAIN_COST)
    assert faces_1based(d.maximal_faces) == [
        (1, 3, 4), (1, 4, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6)]


def test_certificates_are_exact():
    a = IntMatrix(LONG_CHAIN)
    d = regular_subdivision(a, LONG_CHAIN_COST)
    for f, y in zip(d.maximal_faces, d.certificates):
        for j in range(a.n):
            val = dot(a.column(j), y)
            if j in f:
                assert val == LONG_CHAIN_COST[j]
            else:
                assert val < LONG_CHAIN_COST[j]


def test_non_generic_cost_is_flagged_not_perturbed():
    d = regular_subdivision(IntMatrix(EX1), (0, 0, 0, 0))
    assert not d.is_triangulation
    assert d.maximal_faces == ((0, 1, 2, 3),)


def test_optimal_face_examples():
    a = IntMatrix(EX1)
    d = regular_subdivision(a, EX1_COST)
    assert optimal_face(d, (4, 1)) == face(1, 2)
    assert optimal_face(d, (0, 0)) == ()
    assert optimal_face(d, (2, 2)) == face(2)
    with pytest.raises(OutsideCone):
        optimal_face(d, (-1, 0))
    with pytest.raises(OutsideCone):
        optimal_face(d, (1, 4))  # above the top ray


def test_optimal_face_support_property():
    # for b = A u the returned face supports an LP optimum: b in cone(A_tau)
    rng = random.Random(7)
    a = IntMatrix(LONG_CHAIN)
    d = regular_subdivision(a, LONG_CHAIN_COST)
    for _ in range(25):
        u = tuple(rng.randint(0, 3) for _ in range(a.n))
        tau = optimal_face(d, a.apply(u))
        assert in_cone(a, tau, a.apply(u))
        for smaller in d.faces():
            if len(smaller) < len(tau):
                assert not (set(smaller) < set(tau) and in_cone(a, smaller, a.apply(u)))


def test_optimal_face_certifies_lp_value():
    # the dual certificate of any maximal cell containing the optimal face
    # prices the linear relaxation exactly
    from toricip.linprog import OPTIMAL, solve_lp

    rng = random.Random(3)
    a = IntMatrix(LONG_CHAIN)
    d = regular_subdivision(a, LONG_CHAIN_COST)
    for _ in range(10):
        u = tuple(rng.randint(0, 3) for _ in range(a.n))
        b = a.apply(u)
        tau = optimal_face(d, b)
        sigma = next(f for f in d.maximal_faces if set(tau) <= set(f))
        y = d.certificate(sigma)
        nonneg = [[-1 if j == i else 0 for j in range(a.n)] for i in range(a.n)]
        res = solve_lp(list(LONG_CHAIN_COST), nonneg, [0] * a.n,
                       [list(r) for r in a.entries], list(b))
        assert res.status == OPTIMAL
        assert res.value == dot(b, y)


def test_unimodularity_and_tdi():
    a1 = IntMatrix(EX1)
    rep1 = unimodularity_report(a1, regular_subdivision(a1, EX1_COST))
    assert rep1.tdi and all(ix == 1 for _, ix in rep1.indices)

    a3 = IntMatrix(EX3)
    rep3 = unimodularity_report(a3, regular_subdivision(a3, EX1_COST))
    assert not rep3.tdi

    ident = IntMatrix(((1, 0), (0, 1)))
    repi = unimodularity_report(ident, regular_subdivision(ident, (0, 0)))
    assert repi.tdi


@pytest.mark.parametrize("name", ["ex1-zero", "long-chain-zero"])
def test_unimodularity_report_refuses_a_subdivision_that_is_not_a_triangulation(name):
    # it used to take the determinant of a cell's first d columns: on ex1-zero
    # index 1 and tdi True for the cell (0, 1, 2, 3), on long-chain-zero index 25
    a, cost = DEGENERATE[name]
    delta = regular_subdivision(a, cost)
    assert not delta.is_triangulation
    with pytest.raises(Degenerate):
        unimodularity_report(a, delta)
    assert unimodularity_report(a, lex_refinement(delta)).indices


def test_unimodularity_report_refuses_a_subdivision_of_another_matrix():
    # it used to read EX3's columns on EX1's cells: indices 1, 4, 4 and tdi False
    delta = regular_subdivision(IntMatrix(EX1), EX1_COST)
    with pytest.raises(ParseError, match="built for another matrix"):
        unimodularity_report(IntMatrix(EX3), delta)


def test_indices_are_normalized_volumes():
    a = IntMatrix(LONG_CHAIN)
    d = regular_subdivision(a, LONG_CHAIN_COST)
    g = gcd_maximal_minors(a)
    rep = unimodularity_report(a, d)
    for f, ix in rep.indices:
        assert ix == face_determinant(a, f) // g


def test_pairwise_cells_meet_in_common_faces():
    # a point of two maximal cones lies in the cone of their shared columns
    for rows, cost in [(EX1, EX1_COST), (LONG_CHAIN, LONG_CHAIN_COST)]:
        a = IntMatrix(rows)
        d = regular_subdivision(a, cost)
        rng = random.Random(1)
        for f1 in d.maximal_faces:
            for f2 in d.maximal_faces:
                if f1 >= f2:
                    continue
                shared = tuple(sorted(set(f1) & set(f2)))
                for _ in range(6):
                    coeffs = [rng.randint(0, 3) for _ in f1]
                    x = tuple(
                        sum(c * a.column(j)[i] for c, j in zip(coeffs, f1))
                        for i in range(a.d)
                    )
                    if in_cone(a, f2, x):
                        assert in_cone(a, shared, x)


def test_volume_cover():
    # maximal-cell volumes add up to the volume of the whole cone
    for rows, cost, extreme in [
        (EX1, EX1_COST, face(1, 4)),
        (LONG_CHAIN, LONG_CHAIN_COST, face(1, 2, 3)),
    ]:
        a = IntMatrix(rows)
        d = regular_subdivision(a, cost)
        total = sum(face_determinant(a, f) for f in d.maximal_faces)
        assert total == face_determinant(a, extreme)


@pytest.mark.parametrize("seed", range(30))
def test_optimal_face_matches_lp_face_scan(seed):
    # the walk over maximal simplices against the LP membership test on every
    # face in (size, lex) order, for points of cone(A), points outside it and
    # points of the cone off the lattice ZA
    from conftest import make_instance

    a, c = make_instance(seed)
    d = regular_subdivision(a, c)
    assert d.is_triangulation
    rng = random.Random(seed)
    for k in range(12):
        if k % 2:
            b = a.apply(tuple(rng.randint(0, 3) * rng.randint(0, 1) for _ in range(a.n)))
        else:
            b = tuple(rng.randint(-2, 9) for _ in range(a.d))
        want = next((f for f in d.faces() if in_cone(a, f, b)), None)
        if want is None:
            with pytest.raises(OutsideCone):
                optimal_face(d, b)
        else:
            assert optimal_face(d, b) == want


def test_optimal_face_on_a_subdivision():
    # the one cell (0, 1, 2, 3) is not a simplex: (2, 3) lies in the cones of
    # (0, 2) and (1, 2), and neither is a face, so there is no answer to give
    d = regular_subdivision(IntMatrix(EX1), (0, 0, 0, 0))
    assert not d.is_triangulation
    for b in [(2, 3), (2, 2), (0, 0), (3, 4), (1, 4)]:
        with pytest.raises(Degenerate):
            optimal_face(d, b)
    # a malformed right-hand side is still a parse error first
    with pytest.raises(ParseError):
        optimal_face(d, (2, 3, 4))
    # the lex refinement is a triangulation, where the face is unique
    refined = lex_refinement(d)
    assert optimal_face(refined, (2, 3)) == face(2, 3)
    assert optimal_face(refined, (2, 2)) == face(2)


def _degenerate_instance(seed):
    """A small matrix with a degenerate cost: ties in the basis or a fat cell.

    At most 6 columns, so the integer-cost search of the reference stays fast.
    """
    rng = random.Random(seed)
    d = 1 + rng.randrange(3)
    n = d + 1 + rng.randrange(3)
    while True:
        rows = tuple(tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(d))
        try:
            a = IntMatrix(rows)
        except DomainError:
            continue
        for _ in range(20):
            c = tuple(rng.randint(0, 2) for _ in range(n))
            gb = toric_groebner(a, CostOrder.from_cost(c))
            if not gb.generic or not regular_subdivision(a, c).is_triangulation:
                return a, c


def _assert_matches_search(a, cost):
    delta = regular_subdivision(a, cost)
    refined = lex_refinement(delta)
    want = regular_subdivision(a, lex_realizing_cost(a, cost))
    assert refined.maximal_faces == want.maximal_faces
    assert refined.is_triangulation and refined.cost == delta.cost
    # each simplex carries the certificate of the cell it refines
    for sigma, y in zip(refined.maximal_faces, refined.certificates):
        cell = next(f for f in delta.maximal_faces if set(sigma) <= set(f))
        assert y == delta.certificate(cell)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_lex_refinement_matches_integer_cost_search(name):
    _assert_matches_search(*DEGENERATE[name])


@pytest.mark.parametrize("seed", range(48))
def test_lex_refinement_matches_search_on_seeded_costs(seed):
    _assert_matches_search(*_degenerate_instance(seed))


def test_lex_refinement_splits_the_zero_cost_cell():
    # all four columns of EX1 lie in one cell at cost 0; the lex lift
    # (1, t, t^2, t^3) is convex over the points 0..3, so each column is a vertex
    d = lex_refinement(regular_subdivision(IntMatrix(EX1), (0, 0, 0, 0)))
    assert faces_1based(d.maximal_faces) == [(1, 2), (2, 3), (3, 4)]
    # a triangulation is its own refinement
    tri = regular_subdivision(IntMatrix(EX1), EX1_COST)
    assert lex_refinement(tri).maximal_faces == tri.maximal_faces


def _same_optimal_face(delta, b):
    try:
        want = reference_optimal_face(delta, b)
    except OutsideCone:
        with pytest.raises(OutsideCone):
            optimal_face(delta, b)
        return False
    assert optimal_face(delta, b) == want, b
    return True


def test_optimal_face_matches_fraction_scan_on_acceptance_rhs(acceptance_pipelines):
    # the integer inverses against a Fraction solve per simplex, for the
    # twenty b of each seed and for random b, many of them outside cone(A)
    inside = outside = 0
    for inst in acceptance_pipelines:
        delta, a = inst["delta"], inst["a"]
        rng = random.Random(inst["seed"])
        extra = [tuple(rng.randint(-3, 9) for _ in range(a.d)) for _ in range(10)]
        for b in inst["rhs"] + extra:
            if _same_optimal_face(delta, b):
                inside += 1
            else:
                outside += 1
    assert inside >= 2000 and outside > 100


@pytest.mark.parametrize("seed", range(20))
def test_optimal_face_matches_fraction_scan_on_lex_refinements(seed):
    a, c = _degenerate_instance(seed)
    refined = lex_refinement(regular_subdivision(a, c))
    rng = random.Random(seed)
    for _ in range(15):
        if rng.random() < 0.6:
            b = a.apply(tuple(rng.randint(0, 3) for _ in range(a.n)))
        else:
            b = tuple(rng.randint(-2, 9) for _ in range(a.d))
        _same_optimal_face(refined, b)


def _assert_certificate_reduced_costs(delta):
    # c~ = c - y A with y the face's certificate, against a Fraction solve per face
    a = delta.matrix
    for sigma in delta.maximal_faces:
        y = delta.certificate(sigma)
        got = tuple(delta.cost[j] - dot(a.column(j), y) for j in range(a.n))
        assert got == reference_reduced_cost(a, delta.cost, sigma), sigma
    return len(delta.maximal_faces)


def test_certificate_reduced_cost_matches_fraction_solve_on_generic_costs(acceptance_pipelines):
    faces = sum(_assert_certificate_reduced_costs(inst["delta"]) for inst in acceptance_pipelines)
    assert faces > 150


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_certificate_reduced_cost_matches_fraction_solve_on_degenerate_costs(name):
    # the cells of the subdivision (not all simplices) and the simplices of
    # its lex refinement, which carry their cell's certificate
    delta = regular_subdivision(*DEGENERATE[name])
    refined = lex_refinement(delta)
    _assert_certificate_reduced_costs(delta)
    _assert_certificate_reduced_costs(refined)
    if not delta.is_triangulation:
        # a simplex inside a cell is not a face the subdivision carries a certificate for
        inner = next(s for s in refined.maximal_faces if s not in delta.maximal_faces)
        with pytest.raises(NotAFace):
            delta.certificate(inner)


@pytest.mark.parametrize("seed", range(20))
def test_certificate_reduced_cost_matches_fraction_solve_on_seeded_degenerate_costs(seed):
    delta = regular_subdivision(*_degenerate_instance(seed))
    _assert_certificate_reduced_costs(delta)
    _assert_certificate_reduced_costs(lex_refinement(delta))


def test_degenerate_cases_include_subdivisions_that_are_not_triangulations():
    fat = [name for name in DEGENERATE if not regular_subdivision(*DEGENERATE[name]).is_triangulation]
    assert len(fat) >= 3
