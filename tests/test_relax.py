import math
import random
import time
from itertools import combinations

import pytest
from conftest import (
    DEGENERATE,
    EX1,
    GFAMILY,
    KNAPSACK_COST,
    LONG_CHAIN,
    LONG_CHAIN_COST,
    _BuiltOnUse,
    face,
    zero_heavy_instance,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_relax import reference_solve, tie_count
from reference_solve import reference_reduced_cost

from toricip import oracle
from toricip.oracle import IneqPolytope, brute_force_standard_pairs, fiber_solve
from toricip.core import IntMatrix, kernel_lattice_basis
from toricip.errors import ChainViolation, Infeasible, NotAFace, ParseError, Unbounded
from toricip.groebner import CostOrder, is_generic, solve_ip, toric_groebner
from toricip.hilbert import gomory_cost, normality_report, sharp_family
from toricip.linalg import det_int, dot
from toricip.relax import build_relaxation, solve_relaxation, solve_via_standard_pairs
from toricip.stdpairs import Decomposition, relaxations_solving
from toricip.triangulation import (
    cached_subdivision,
    lex_refinement,
    optimal_face,
    regular_subdivision,
)


def test_build_relaxation_rows(knapsack_pipeline):
    a, delta, _, _, _ = knapsack_pipeline
    r = build_relaxation(a, KNAPSACK_COST, delta, face(3), (40,))
    lat = kernel_lattice_basis(a)
    rows = oracle.q_polytope(a, KNAPSACK_COST, r.feasible, r.face).rows
    assert [s for s, _ in rows[:-1]] == [lat.matrix[0], lat.matrix[1]]
    assert rows[-1] == (oracle.cost_row(a, KNAPSACK_COST), 0)
    # c~ restricted to the kernel basis equals cB regardless of the maximal
    # face it is taken from, so the relaxation's cost row -cB needs no c~
    for sigma in delta.maximal_faces:
        ctilde = reference_reduced_cost(a, KNAPSACK_COST, sigma)
        ctilde_b = tuple(dot(ctilde, col) for col in lat.columns())
        assert ctilde_b == tuple(dot(KNAPSACK_COST, col) for col in lat.columns())


def test_empty_face_is_the_full_program(knapsack_pipeline):
    a, delta, _, _, _ = knapsack_pipeline
    r = build_relaxation(a, KNAPSACK_COST, delta, (), (27,))
    out = solve_relaxation(r)
    assert out.x == (1, 5, 0) and out.solves_ip and out.value == 10500


def test_not_a_face(knapsack_pipeline):
    a, delta, _, _, _ = knapsack_pipeline
    with pytest.raises(NotAFace):
        build_relaxation(a, KNAPSACK_COST, delta, face(1), (40,))
    with pytest.raises(Infeasible):
        build_relaxation(a, KNAPSACK_COST, delta, face(3), (1,))


def test_knapsack_relaxation_outcomes(knapsack_pipeline):
    a, delta, _, _, _ = knapsack_pipeline
    out2 = solve_relaxation(build_relaxation(a, KNAPSACK_COST, delta, face(3), (2,)))
    assert out2.x == (0, 2, -1) and not out2.solves_ip
    out40 = solve_relaxation(build_relaxation(a, KNAPSACK_COST, delta, face(3), (40,)))
    assert out40.x == (0, 0, 5) and out40.solves_ip
    out0 = solve_relaxation(build_relaxation(a, KNAPSACK_COST, delta, face(3), (0,)))
    assert out0.z == (0, 0) and out0.solves_ip and out0.x == (0, 0, 0)


def test_lift_correctness_and_value_ordering(long_chain_pipeline):
    a, delta, _, _, _ = long_chain_pipeline
    rng = random.Random(5)
    order = CostOrder.from_cost(LONG_CHAIN_COST)
    for _ in range(12):
        u = tuple(rng.randint(0, 2) for _ in range(a.n))
        b = a.apply(u)
        opt_value = dot(LONG_CHAIN_COST, solve_ip(a, order, b))
        for f in rng.sample(delta.faces(), 4):
            out = solve_relaxation(build_relaxation(a, LONG_CHAIN_COST, delta, f, b))
            assert a.apply(out.x) == b
            assert out.value <= opt_value
            assert (out.value == opt_value) == out.solves_ip


def test_monotonicity_of_solving(long_chain_pipeline):
    # if G^tau solves, every stricter relaxation solves
    a, delta, _, _, _ = long_chain_pipeline
    rng = random.Random(6)
    for _ in range(8):
        u = tuple(rng.randint(0, 2) for _ in range(a.n))
        b = a.apply(u)
        for f in delta.maximal_faces:
            if not solve_relaxation(
                build_relaxation(a, LONG_CHAIN_COST, delta, f, b)
            ).solves_ip:
                continue
            for k in range(len(f)):
                for sub in combinations(f, k):
                    out = solve_relaxation(
                        build_relaxation(a, LONG_CHAIN_COST, delta, sub, b)
                    )
                    assert out.solves_ip


def test_wolsey_completeness(knapsack_pipeline):
    # some relaxation always solves; the empty face always works
    a, delta, _, _, _ = knapsack_pipeline
    for b in [(2,), (7,), (16,), (27,), (40,)]:
        assert any(
            solve_relaxation(build_relaxation(a, KNAPSACK_COST, delta, f, b)).solves_ip
            for f in delta.faces()
        )


def test_solve_via_standard_pairs(knapsack_pipeline):
    a, _, _, _, decomp = knapsack_pipeline
    x, pair = solve_via_standard_pairs(decomp, a, (27,))
    assert x == (1, 5, 0) and pair.face == ()
    x, pair = solve_via_standard_pairs(decomp, a, (16,))
    assert x == (0, 0, 2) and pair.face == face(3)
    x, pair = solve_via_standard_pairs(decomp, a, (7,))
    assert x == (1, 1, 0)
    with pytest.raises(Infeasible):
        solve_via_standard_pairs(decomp, a, (3,))


OTHER = _BuiltOnUse({"matrix": lambda: IntMatrix(((2, 5, 7),))})  # another 1 x 3 matrix


def _build_on_ex1(tau):
    a = IntMatrix(EX1)
    return build_relaxation(a, (1, 0, 0, 1), regular_subdivision(a, (1, 0, 0, 1)), tau, (3, 4))

# each call gets the knapsack pipeline (a, delta, gb, ideal, decomp)
INCONSISTENT_CALLS = {
    "solve-sp-rhs-too-long": lambda a, delta, decomp: solve_via_standard_pairs(decomp, a, (27, 5)),
    "solve-sp-rhs-empty": lambda a, delta, decomp: solve_via_standard_pairs(decomp, a, ()),
    "solve-sp-other-matrix": lambda a, delta, decomp: solve_via_standard_pairs(
        decomp, OTHER["matrix"], (27,)),
    "subdivision-cost-too-short": lambda a, delta, decomp: regular_subdivision(a, (1, 2)),
    "subdivision-cost-too-long": lambda a, delta, decomp: regular_subdivision(a, (1, 2, 3, 4)),
    "subdivision-cost-float": lambda a, delta, decomp: regular_subdivision(a, (1.5, 2, 3)),
    "cost-order-bool": lambda a, delta, decomp: CostOrder.from_cost((True, 0, 0)),
    "solve-ip-rhs-float": lambda a, delta, decomp: solve_ip(
        a, CostOrder.from_cost(KNAPSACK_COST), (27.5,)),
    "fiber-solve-cost-float": lambda a, delta, decomp: fiber_solve(a, (10000.5, 100, 1), (27,)),
    "polytope-offset-float": lambda a, delta, decomp: IneqPolytope.from_rows([((1,), 2.9)]),
    "optimal-face-rhs-too-long": lambda a, delta, decomp: optimal_face(delta, (27, 5)),
    "optimal-face-rhs-empty": lambda a, delta, decomp: optimal_face(delta, ()),
    "build-rhs-too-long": lambda a, delta, decomp: build_relaxation(a, KNAPSACK_COST, delta, (), (27, 5)),
    "build-rhs-float": lambda a, delta, decomp: build_relaxation(a, KNAPSACK_COST, delta, (), (27.9,)),
    "build-other-cost": lambda a, delta, decomp: build_relaxation(a, (1, 100, 10000), delta, (), (27,)),
    "build-other-matrix": lambda a, delta, decomp: build_relaxation(
        OTHER["matrix"], KNAPSACK_COST, delta, (), (27,)),
    "build-other-shape": lambda a, delta, decomp: build_relaxation(
        IntMatrix(EX1), (1, 0, 0, 1), delta, (), (4, 6)),
    # a face passed to build_relaxation used to be sorted and nothing more: on
    # EX1 each of these returned a relaxation, with faces (1, 1), (True,) and (1, 1, 2)
    "build-face-repeated": lambda a, delta, decomp: _build_on_ex1((1, 1)),
    "build-face-bool": lambda a, delta, decomp: _build_on_ex1((True,)),
    "build-face-repeated-unsorted": lambda a, delta, decomp: _build_on_ex1((1, 2, 1)),
    # an order on fewer variables than A has columns used to act as if padded with 0
    "groebner-order-too-short": lambda a, delta, decomp: toric_groebner(
        IntMatrix(EX1), CostOrder.from_cost((1, 0))),
    "groebner-order-too-long": lambda a, delta, decomp: toric_groebner(
        a, CostOrder.from_cost((10000, 100, 1, 0))),
    "is-generic-cost-too-short": lambda a, delta, decomp: is_generic(IntMatrix(EX1), (1, 0)),
    "solve-ip-order-too-short": lambda a, delta, decomp: solve_ip(
        IntMatrix(EX1), CostOrder.from_cost((1, 0)), (4, 6)),
    "solve-ip-order-too-short-empty-fiber": lambda a, delta, decomp: solve_ip(
        IntMatrix(EX1), CostOrder.from_cost((1, 0)), (1, 5)),
    "brute-pairs-root-box-float": lambda a, delta, decomp: brute_force_standard_pairs(
        a, KNAPSACK_COST, delta, root_box=[1.5, 1, 1]),
    "brute-pairs-root-box-too-short": lambda a, delta, decomp: brute_force_standard_pairs(
        a, KNAPSACK_COST, delta, root_box=[1, 1]),
    "brute-pairs-margin-float": lambda a, delta, decomp: brute_force_standard_pairs(
        a, KNAPSACK_COST, delta, root_box=[1, 1, 1], margin=0.5),
    # a negative cap empties the box, which used to report no pairs at all
    "brute-pairs-root-box-negative": lambda a, delta, decomp: brute_force_standard_pairs(
        a, KNAPSACK_COST, delta, root_box=[-3, 1, 0]),
    "brute-pairs-margin-negative": lambda a, delta, decomp: brute_force_standard_pairs(
        a, KNAPSACK_COST, delta, root_box=[1, 1, 1], margin=-2),
    # on EX1, the face (9,) used to give the empty face's five rows, a u of 6
    # entries was cut short, one of 2 raised IndexError, and the cost (1, 0)
    # gave the cost row (-1, 0), the dot product stopping at the shorter vector
    "q-polytope-face-out-of-range": lambda a, delta, decomp: oracle.q_polytope(
        IntMatrix(EX1), (1, 0, 0, 1), (0, 0, 0, 0), (9,)),
    "q-polytope-face-negative": lambda a, delta, decomp: oracle.q_polytope(
        IntMatrix(EX1), (1, 0, 0, 1), (0, 0, 0, 0), (-1,)),
    "q-polytope-face-bool": lambda a, delta, decomp: oracle.q_polytope(
        IntMatrix(EX1), (1, 0, 0, 1), (0, 0, 0, 0), (True,)),
    "q-polytope-u-too-long": lambda a, delta, decomp: oracle.q_polytope(
        IntMatrix(EX1), (1, 0, 0, 1), (0, 0, 0, 0, 0, 0)),
    "q-polytope-u-too-short": lambda a, delta, decomp: oracle.q_polytope(
        IntMatrix(EX1), (1, 0, 0, 1), (0, 0)),
    "q-polytope-cost-too-short": lambda a, delta, decomp: oracle.q_polytope(
        IntMatrix(EX1), (1, 0), (0, 0, 0, 0)),
    "q-polytope-face-repeated": lambda a, delta, decomp: oracle.q_polytope(
        IntMatrix(EX1), (1, 0, 0, 1), (0, 0, 0, 0), (1, 1)),
    # a face passed to the library used to go unchecked: on EX1, (0, 9) raised
    # IndexError, (-1, 0) read column 3, and on GFAMILY (0, 1, 9) gave NotRegular
    "normality-face-out-of-range": lambda a, delta, decomp: normality_report(
        IntMatrix(EX1), [(0, 9)]),
    "normality-face-negative": lambda a, delta, decomp: normality_report(
        IntMatrix(EX1), [(-1, 0)]),
    "normality-face-repeated": lambda a, delta, decomp: normality_report(
        IntMatrix(EX1), [(0, 0)]),
    "normality-face-bool": lambda a, delta, decomp: normality_report(
        IntMatrix(EX1), [(True, 2)]),
    # a subdivision of EX1 passed with GFAMILY used to report its 2-column
    # faces Delta-normal, and one of GFAMILY passed with EX1 raised IndexError
    "normality-other-matrix": lambda a, delta, decomp: normality_report(
        IntMatrix(GFAMILY), regular_subdivision(IntMatrix(EX1), (1, 0, 0, 1))),
    "normality-other-wider-matrix": lambda a, delta, decomp: normality_report(
        IntMatrix(EX1), regular_subdivision(IntMatrix(GFAMILY), (0, 0, 1, 1, 0, 3))),
    "gomory-cost-face-out-of-range": lambda a, delta, decomp: gomory_cost(
        IntMatrix(GFAMILY), [(0, 1, 9)]),
    "gomory-cost-face-negative": lambda a, delta, decomp: gomory_cost(
        IntMatrix(GFAMILY), [(-1, 0, 1)]),
    "cost-row-too-short": lambda a, delta, decomp: oracle.cost_row(IntMatrix(EX1), (1, 0)),
    "cost-row-float": lambda a, delta, decomp: oracle.cost_row(a, (10000.5, 100, 1)),
}


@pytest.mark.parametrize("name", sorted(INCONSISTENT_CALLS))
def test_inconsistent_library_inputs_are_parse_errors(knapsack_pipeline, name):
    # a right-hand side or cost of the wrong length or with an entry that is
    # not an int, or a subdivision or decomposition built for another matrix
    # or cost, is malformed input; on the 1-row knapsack, zip used to cut
    # (27, 5) down to b = 27, and int() used to cut (27.5,) down to (27,)
    a, delta, _, _, decomp = knapsack_pipeline
    with pytest.raises(ParseError):
        INCONSISTENT_CALLS[name](a, delta, decomp)


def test_subdivision_cache_is_keyed_on_the_checked_cost():
    # a list cost is checked into the same int tuple, so it hits the cache
    a = IntMatrix(EX1)
    first = regular_subdivision(a, (1, 0, 0, 1))
    hits = cached_subdivision.cache_info().hits
    assert regular_subdivision(a, [1, 0, 0, 1]) is first
    assert cached_subdivision.cache_info().hits == hits + 1


def _matches_reference(r):
    """solve_relaxation equals the enumerate-and-min reference, or both raise Unbounded.

    Returns the outcome, or None for an unbounded relaxation.
    """
    try:
        want = reference_solve(r)
    except Unbounded:
        with pytest.raises(Unbounded):
            solve_relaxation(r)
        return None
    assert solve_relaxation(r) == want
    return want


def test_solve_matches_enumerate_and_min_on_acceptance_rhs(acceptance_pipelines):
    # criterion 8's twenty (b, face) per seed; the outcomes compare z, x,
    # solves_ip and value
    checked = 0
    for inst in acceptance_pipelines:
        a, c, delta = inst["a"], inst["c"], inst["delta"]
        for b, tau in zip(inst["rhs"], inst["taus"]):
            r = build_relaxation(a, c, delta, tau, b)
            assert solve_relaxation(r) == reference_solve(r), (inst["seed"], b, tau)
            checked += 1
    assert checked == 2000


def test_solves_ip_is_false_exactly_when_a_face_coordinate_of_the_lift_is_negative(
        acceptance_pipelines):
    # the lift is checked in one pass only when some entry is negative: a
    # negative entry on the face clears solves_ip, and off the face none occurs
    seen = set()
    for inst in acceptance_pipelines:
        a, c, delta = inst["a"], inst["c"], inst["delta"]
        for b, tau in zip(inst["rhs"], inst["taus"]):
            out = solve_relaxation(build_relaxation(a, c, delta, tau, b))
            assert all(out.x[i] >= 0 for i in range(a.n) if i not in tau), (inst["seed"], b, tau)
            negative = any(out.x[i] < 0 for i in tau)
            assert out.solves_ip is not negative, (inst["seed"], b, tau)
            seen.add(negative)
    assert seen == {True, False}


LOW_CORANK = {
    # corank 0: the relaxation lives in Z^0
    "corank0": (((1, 1), (0, 2)), (3, 1)),
    "corank0-zero": (((2, 1), (1, 3)), (0, 0)),
    # corank 1: the cost row is one number, of either sign or zero
    "corank1": (((2, 3),), (1, 1)),
    "corank1-other-sign": (((2, 3),), (1, 5)),
    "corank1-zero-row": (((2, 3),), (2, 3)),  # c B = 0: one cell, no cost cut
    "knapsack": (((2, 5, 8),), KNAPSACK_COST),
}


@pytest.mark.parametrize("name", sorted(LOW_CORANK))
def test_solve_matches_enumerate_and_min_at_low_corank(name):
    rows, cost = LOW_CORANK[name]
    a = IntMatrix(rows)
    delta = regular_subdivision(a, cost)
    solved = 0
    for u in [(0,) * a.n, (1,) * a.n, tuple(range(a.n)), tuple(range(a.n, 0, -1)), (4,) * a.n]:
        b = a.apply(u)
        for tau in delta.faces():
            solved += _matches_reference(build_relaxation(a, cost, delta, tau, b)) is not None
    assert solved


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_solve_matches_enumerate_and_min_on_degenerate_costs(name):
    # the faces of the cells (not all simplices) and of the lex refinement;
    # ties in the cost are broken by lex order on z, as in the reference
    a, cost = DEGENERATE[name]
    delta = regular_subdivision(a, cost)
    rng = random.Random(name)
    ties = 0
    for sub in (delta, lex_refinement(delta)):
        for _ in range(3):
            b = a.apply(tuple(rng.randint(0, 2) for _ in range(a.n)))
            for tau in sub.faces():
                r = build_relaxation(a, cost, sub, tau, b)
                if _matches_reference(r) is not None:
                    ties += tie_count(r) > 1
    assert ties


def test_zero_cost_row_puts_no_coordinate_first():
    # r = -cB = 0: T is the echelon kernel basis of the zero row, the cut is 0
    a, cost = DEGENERATE["long-chain-zero"]
    t, bt, cut = regular_subdivision(a, cost).cost_coordinates
    assert cut == (0, 0, 0)
    assert abs(det_int(t)) == 1
    assert bt == tuple(tuple(dot(row, col) for col in zip(*t))
                       for row in kernel_lattice_basis(a).matrix)


def test_cost_coordinates_are_built_once_per_subdivision():
    a = IntMatrix(LONG_CHAIN)
    delta = regular_subdivision(a, LONG_CHAIN_COST)
    coords = delta.cost_coordinates
    assert delta.cost_coordinates is coords
    r = build_relaxation(a, LONG_CHAIN_COST, delta, (), a.apply((1,) * a.n))
    assert (r.transform, r.kernel_rows, r.cut) == coords
    assert r.cut[0] > 0 and not any(r.cut[1:])
    assert r.cut[0] == math.gcd(*oracle.cost_row(a, LONG_CHAIN_COST))


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_hypothesis_bounded_relaxations_match_reference(rng):
    inst = zero_heavy_instance(rng)
    if inst is None:
        return
    a, cost = inst
    delta = regular_subdivision(a, cost)
    t, _, _ = delta.cost_coordinates
    if t:
        assert abs(det_int(t)) == 1
    for sub in (delta, lex_refinement(delta)):
        b = a.apply(tuple(rng.randint(0, 3) for _ in range(a.n)))
        for tau in sub.faces():
            r = build_relaxation(a, cost, sub, tau, b)
            if oracle.q_polytope(a, cost, r.feasible, tau).is_bounded():
                assert solve_relaxation(r) == reference_solve(r), (a, cost, tau, b)


def test_unbounded_relaxation_on_a_cell_that_is_not_a_simplex():
    # sharp m=3: the second cell has 9 columns in dimension 7, so its kernel
    # directions are free in the relaxation and cost nothing
    a, cost = sharp_family(3)
    delta = regular_subdivision(a, cost)
    cell = max(delta.maximal_faces, key=len)
    assert len(cell) > a.d
    r = build_relaxation(a, cost, delta, cell, a.apply((1,) * a.n))
    with pytest.raises(Unbounded):
        reference_solve(r)
    with pytest.raises(Unbounded):
        solve_relaxation(r)


def test_one_solve_is_one_first_point_sweep(long_chain_pipeline, monkeypatch):
    a, delta, _, _, _ = long_chain_pipeline
    r = build_relaxation(a, LONG_CHAIN_COST, delta, delta.maximal_faces[2], a.apply((2,) * a.n))
    calls = []
    plan = delta.relaxation_elimination
    assert r.elimination is plan
    sweep = plan.points

    def counted(offsets, limit=None):
        calls.append(limit)
        return sweep(offsets, limit)

    monkeypatch.setattr(plan, "points", counted)
    out = solve_relaxation(r)
    assert calls == [1]
    assert out.value < dot(LONG_CHAIN_COST, (2,) * a.n)


def test_solve_via_pairs_matches_groebner(long_chain_pipeline):
    a, _, _, _, decomp = long_chain_pipeline
    rng = random.Random(9)
    order = CostOrder.from_cost(LONG_CHAIN_COST)
    for _ in range(15):
        u = tuple(rng.randint(0, 3) for _ in range(a.n))
        b = a.apply(u)
        x, _ = solve_via_standard_pairs(decomp, a, b)
        assert x == solve_ip(a, order, b)


def test_solving_matches_pair_cover(long_chain_pipeline):
    # Lemma link: G^tau solves at the optimum iff tau is in the cover closure
    a, delta, _, _, decomp = long_chain_pipeline
    v = (1, 1, 1, 0, 0, 0)
    b = a.apply(v)
    solvers = set(relaxations_solving(v, decomp))
    for f in delta.faces():
        out = solve_relaxation(build_relaxation(a, LONG_CHAIN_COST, delta, f, b))
        assert out.solves_ip == (f in solvers)


def square_system_scan(decomp, a, b):
    """The pair scan with each system solved by rational elimination."""
    from reference_linalg import solve_exact

    maximal = set(decomp.delta.maximal_faces)
    ordered = sorted(
        decomp.pairs,
        key=lambda p: (0 if p.face in maximal else 1, -len(p.face), p.face, p.root),
    )
    for pair in ordered:
        rhs = tuple(bi - vi for bi, vi in zip(b, a.apply(pair.root)))
        sol = solve_exact(a.columns(pair.face), rhs)
        if sol is None or any(v.denominator != 1 or v < 0 for v in sol):
            continue
        x = list(pair.root)
        for t, i in enumerate(pair.face):
            x[i] = int(sol[t])
        return tuple(x), pair
    return None


# decompositions beyond the seeded generic ones: refined ones from degenerate
# costs (sharp m=3, d = 7, among them) and corank 0, where the one pair's
# face is every column and a right-hand side off the column lattice fails
SCAN_CASES = _BuiltOnUse({
    **{f"refined-{name}": (lambda name=name: DEGENERATE[name]) for name in DEGENERATE},
    "corank0": lambda: (IntMatrix(((1, 1), (0, 2))), (3, 1)),
    "corank0-det5": lambda: (IntMatrix(((2, 1), (1, 3))), (0, 0)),
    "d1-non-unit": lambda: (IntMatrix(((2,),)), (1,)),
})
# cases where some of the arbitrary right-hand sides are checked to fail
LEAVE_THE_SEMIGROUP = {"refined-sharp3", "corank0", "corank0-det5", "d1-non-unit"}


@pytest.mark.parametrize("case", [*range(25), *sorted(SCAN_CASES)])
def test_solve_via_pairs_matches_square_system_scan(case):
    # the group test of each pair against its rational solution, on
    # right-hand sides in the semigroup and arbitrary ones (often infeasible)
    from conftest import make_instance

    from toricip.stdpairs import decomposition_for

    a, c = SCAN_CASES[case] if case in SCAN_CASES else make_instance(case)
    _, _, decomp, refined = decomposition_for(a, c)
    assert refined == str(case).startswith("refined-")
    rng = random.Random(case)
    solved = 0
    for k in range(10):
        if k % 2:
            b = tuple(rng.randint(0, 12) for _ in range(a.d))
        else:
            b = a.apply(tuple(rng.randint(0, 3) for _ in range(a.n)))
        want = square_system_scan(decomp, a, b)
        if want is None:
            with pytest.raises(Infeasible):
                solve_via_standard_pairs(decomp, a, b)
        else:
            assert solve_via_standard_pairs(decomp, a, b) == want
            solved += 1
    assert solved >= 5
    if case in LEAVE_THE_SEMIGROUP:
        assert solved < 10


def test_sharp4_solves_match_solve_ip(sharp4_pipeline):
    # d = 15: the pair scan finds each face's simplex with no subset listing;
    # the scan and 20 solves take about 0.17 CPU s on one 2-CPU host
    a, c, _, _, decomp, _, _ = sharp4_pipeline
    rng = random.Random(4)
    rhs = [a.apply(tuple(rng.randint(0, 2) for _ in range(a.n))) for _ in range(20)]
    start = time.process_time()
    got = [solve_via_standard_pairs(decomp, a, b)[0] for b in rhs]
    assert time.process_time() - start < 2
    order = CostOrder.from_cost(c)
    assert got == [solve_ip(a, order, b) for b in rhs]


def test_a_pair_face_outside_every_simplex_is_a_chain_violation(knapsack_pipeline):
    # the knapsack's pairs over the subdivision of another cost: its one cell
    # is {1}, so the pairs on face {3} lie in no simplex of it
    a, _, _, _, decomp = knapsack_pipeline
    other = regular_subdivision(a, (1, 100, 100))
    assert other.maximal_faces == (face(1),)
    assert any(p.face == face(3) for p in decomp.pairs)
    with pytest.raises(ChainViolation):
        solve_via_standard_pairs(Decomposition.from_pairs(decomp.pairs, other), a, (16,))
