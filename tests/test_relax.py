import random
from itertools import combinations

import pytest
from conftest import EX1, KNAPSACK_COST, LONG_CHAIN_COST, face

from toricip import oracle
from toricip.oracle import IneqPolytope, fiber_solve
from toricip.core import IntMatrix, kernel_lattice_basis
from toricip.errors import Infeasible, NotAFace, ParseError
from toricip.groebner import CostOrder, solve_ip
from toricip.linalg import dot
from toricip.relax import build_relaxation, solve_relaxation, solve_via_standard_pairs
from toricip.stdpairs import relaxations_solving
from toricip.triangulation import cached_subdivision, optimal_face, regular_subdivision


def test_build_relaxation_rows(knapsack_pipeline):
    a, delta, _, _, _ = knapsack_pipeline
    r = build_relaxation(a, KNAPSACK_COST, delta, face(3), (40,))
    lat = kernel_lattice_basis(a)
    rows = r.constraint_rows()
    assert [s for s, _ in rows[:-1]] == [lat.matrix[0], lat.matrix[1]]
    assert rows[-1] == (oracle.cost_row(a, KNAPSACK_COST), 0)
    # c~ restricted to the kernel basis equals cB regardless of face
    ctilde_b = tuple(
        sum(r.ctilde[i] * col[i] for i in range(a.n)) for col in lat.columns()
    )
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


OTHER = IntMatrix(((2, 5, 7),))

# each call gets the knapsack pipeline (a, delta, gb, ideal, decomp)
INCONSISTENT_CALLS = {
    "solve-sp-rhs-too-long": lambda a, delta, decomp: solve_via_standard_pairs(decomp, a, (27, 5)),
    "solve-sp-rhs-empty": lambda a, delta, decomp: solve_via_standard_pairs(decomp, a, ()),
    "solve-sp-other-matrix": lambda a, delta, decomp: solve_via_standard_pairs(decomp, OTHER, (27,)),
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
    "build-other-matrix": lambda a, delta, decomp: build_relaxation(OTHER, KNAPSACK_COST, delta, (), (27,)),
    "build-other-shape": lambda a, delta, decomp: build_relaxation(
        IntMatrix(EX1), (1, 0, 0, 1), delta, (), (4, 6)),
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
    from toricip.linalg import solve_exact

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


@pytest.mark.parametrize("seed", range(25))
def test_solve_via_pairs_matches_square_system_scan(seed):
    # the fiber of each pair's system against its rational solution, on
    # right-hand sides in the semigroup and arbitrary ones (often infeasible)
    from conftest import make_instance

    from toricip.stdpairs import decomposition_for

    a, c = make_instance(seed)
    _, _, decomp, _ = decomposition_for(a, c)
    rng = random.Random(seed)
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
