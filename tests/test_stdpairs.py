import random
from functools import partial

import pytest
from conftest import (
    CENSUS_COSTS,
    CENSUS_MATRICES,
    DEGENERATE,
    KNAPSACK,
    _BuiltOnUse,
    face,
    zero_heavy_instance,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_stdpairs import reference_standard_pairs

from toricip.core import IntMatrix
from toricip.errors import ChainViolation, NotOptimal, ParseError
from toricip.stdpairs import (
    MonomialIdeal,
    StandardPair,
    _minimalize,
    _slices,
    _standard_pairs,
    associated_report,
    decomposition_for,
    initial_ideal,
    is_gomory_family,
    relaxations_solving,
    standard_pair_decomposition,
)
from toricip.hilbert import sharp_family


def e(*idx, n=6):
    v = [0] * n
    for i in idx:
        v[i - 1] += 1
    return tuple(v)


KNAPSACK_PAIRS = {
    ((1, 0, 0), ()), ((2, 0, 0), ()), ((3, 0, 0), ()),
    ((1, 1, 0), ()), ((2, 1, 0), ()), ((3, 1, 0), ()),
    ((1, 2, 0), ()), ((2, 2, 0), ()), ((1, 3, 0), ()),
    ((2, 3, 0), ()), ((1, 4, 0), ()), ((1, 5, 0), ()),
    ((0, 0, 0), (2,)), ((0, 1, 0), (2,)), ((0, 2, 0), (2,)),
    ((0, 3, 0), (2,)), ((0, 4, 0), (2,)), ((0, 5, 0), (2,)),
    ((0, 6, 0), (2,)), ((0, 7, 0), (2,)),
}

# the published long-chain table: face -> roots (roots as e_i sums, 1-based)
LONG_CHAIN_TABLE = {
    (1, 3, 4): [e(), e(5), e(6), e(5, 6), e(6, 6)],
    (1, 4, 5): [e(), e(2), e(3), e(6), e(2, 3), e(2, 2), e(2, 2, 2), e(2, 2, 3)],
    (2, 5, 6): [e(), e(3), e(3, 3)],
    (3, 4, 6): [e(), e(5), e(5, 5), e(5, 5, 5)],
    (4, 5, 6): [e(), e(3), e(3, 3), e(3, 3, 3), e(3, 3, 3, 3)],
    (1, 4): [e(3, 5, 5, 6), e(3, 3, 5, 5, 6), e(3, 3, 5, 5), e(3, 3, 5, 5, 5),
             e(3, 3, 5, 5, 5, 5)],
    (1, 5): [e(2, 6), e(2, 2, 6), e(2, 2, 2, 6)],
    (2, 5): [e(3, 4), e(4), e(4, 4)],
    (3, 4): [e(2), e(1, 2), e(1, 5, 5), e(1, 5, 5, 6), e(2, 5)],
    (3, 6): [e(2), e(2, 5)],
    (4, 5): [e(2, 3, 3), e(2, 3, 3, 3), e(2, 2, 3, 3), e(2, 2, 2, 3), e(2, 2, 2, 2)],
    (5, 6): [e(2, 3, 3, 3)],
    (1,): [e(2, 3, 6), e(2, 3, 5, 6), e(2, 6, 6), e(2, 3, 6, 6), e(2, 2, 6, 6),
           e(2, 3, 5, 5, 6)],
    (3,): [e(1, 2, 6), e(1, 2, 6, 6)],
    (4,): [e(1, 2, 3, 3, 5), e(1, 2, 3, 3, 5, 5), e(1, 2, 3, 3, 5, 5, 5),
           e(1, 2, 3, 3, 5, 5, 5, 5), e(1, 3, 3, 3, 5, 5, 5), e(1, 3, 3, 3, 5, 5, 5, 5)],
    (): [e(1, 2, 3, 3, 5, 6), e(1, 2, 3, 3, 5, 5, 6), e(1, 2, 2, 3, 6),
         e(1, 2, 2, 3, 5, 6), e(1, 2, 2, 3, 5, 5, 6), e(1, 2, 2, 3, 6, 6),
         e(1, 2, 2, 2, 6, 6)],
}


def test_initial_ideal_knapsack(knapsack_pipeline):
    _, _, gb, ideal, _ = knapsack_pipeline
    assert set(ideal.generators) == {
        (0, 8, 0), (1, 0, 1), (1, 6, 0), (2, 4, 0), (3, 2, 0), (4, 0, 0)}
    assert ideal.from_generic_order


def test_initial_ideal_empty_basis():
    from toricip.core import IntMatrix
    from toricip.groebner import CostOrder, toric_groebner
    from toricip.triangulation import regular_subdivision

    a = IntMatrix(((1, 0), (0, 1)))
    gb = toric_groebner(a, CostOrder.from_cost((1, 2)))
    ideal = initial_ideal(gb)
    assert ideal.generators == ()
    delta = regular_subdivision(a, (1, 2))
    decomp = standard_pair_decomposition(ideal, delta)
    assert [(p.root, p.face) for p in decomp.pairs] == [((0, 0), (0, 1))]


def test_initial_ideal_membership_matches_solver(long_chain_pipeline):
    # a point is in the ideal iff it is non-optimal for its fiber
    import random

    from toricip import oracle
    from conftest import LONG_CHAIN_COST

    a, _, _, ideal, _ = long_chain_pipeline
    rng = random.Random(11)
    for _ in range(30):
        u = tuple(rng.randint(0, 2) for _ in range(a.n))
        optimal = oracle.fiber_solve(a, LONG_CHAIN_COST, a.apply(u)) == u
        assert ideal.contains(u) == (not optimal)


def test_knapsack_pairs_exact(knapsack_pipeline):
    _, delta, _, _, decomp = knapsack_pipeline
    assert {(p.root, p.face) for p in decomp.pairs} == KNAPSACK_PAIRS
    assert decomp.arithmetic_degree == 20
    assert decomp.multiplicities == {(): 12, (2,): 8}


def test_long_chain_table_exact(long_chain_pipeline):
    _, _, _, _, decomp = long_chain_pipeline
    expected = set()
    for f1, roots in LONG_CHAIN_TABLE.items():
        f0 = face(*f1) if f1 else ()
        for r in roots:
            expected.add((r, f0))
    assert {(p.root, p.face) for p in decomp.pairs} == expected
    assert decomp.arithmetic_degree == 70


def test_gfamily_pairs(gfamily_pipeline):
    _, delta, _, _, decomp = gfamily_pipeline
    s1, s2, s3, s4 = face(1, 2, 5), face(1, 4, 5), face(2, 5, 6), face(4, 5, 6)
    assert {(p.root, p.face) for p in decomp.pairs} == {
        (e(n=6), s1), (e(3, n=6), s1), (e(4, n=6), s1),
        (e(n=6), s2), (e(n=6), s3), (e(n=6), s4)}
    assert is_gomory_family(decomp, delta)


def test_gomory_flags(knapsack_pipeline, long_chain_pipeline):
    _, delta_k, _, _, dk = knapsack_pipeline
    assert not is_gomory_family(dk, delta_k)
    _, delta_l, _, _, dl = long_chain_pipeline
    assert not is_gomory_family(dl, delta_l)


def test_associated_report_knapsack(knapsack_pipeline):
    _, delta, _, _, decomp = knapsack_pipeline
    rep = associated_report(decomp, delta)
    assert rep.associated_sets == ((), (2,))
    assert rep.arithmetic_degree == 20
    assert dict(rep.multiplicities) == {(): 12, (2,): 8}


def test_associated_report_long_chain(long_chain_pipeline):
    _, delta, _, _, decomp = long_chain_pipeline
    rep = associated_report(decomp, delta)
    assert len(rep.associated_sets) == 16
    assert rep.max_chain_length == 3 == rep.length_bound
    # the published saturated chain is present
    chain = [(), face(1), face(1, 4), face(1, 4, 5)]
    assoc = set(rep.associated_sets)
    for t in chain:
        assert t in assoc
    for small, big in zip(chain, chain[1:]):
        assert set(small) < set(big)


def test_triangulation_of_another_matrix_is_a_parse_error(knapsack_pipeline):
    from toricip.triangulation import regular_subdivision

    _, _, _, ideal, _ = knapsack_pipeline
    wrong = regular_subdivision(IntMatrix(((1, 2),)), (0, 0))
    with pytest.raises(ParseError):
        standard_pair_decomposition(ideal, wrong)


def test_triangulation_of_another_cost_breaks_the_chain(knapsack_pipeline):
    from toricip.triangulation import regular_subdivision

    _, _, _, ideal, _ = knapsack_pipeline
    # the reversed cost's cell {1} holds the generator x_1^4, so it has no root
    wrong = regular_subdivision(IntMatrix(KNAPSACK), (1, 100, 10000))
    assert wrong.maximal_faces == (face(1),)
    with pytest.raises(ChainViolation, match="maximal face"):
        standard_pair_decomposition(ideal, wrong)


def test_cover_within_box(knapsack_pipeline):
    # every standard monomial in the generator box is covered by some pair
    _, _, _, ideal, decomp = knapsack_pipeline
    from itertools import product

    bounds = [m + 1 for m in ideal.max_exponents()]
    for u in product(*[range(b) for b in bounds]):
        if ideal.contains(u):
            continue
        covered = any(
            all(u[i] == p.root[i] for i in range(len(u)) if i not in set(p.face))
            for p in decomp.pairs
        )
        assert covered, u


def test_no_pair_meets_ideal(knapsack_pipeline):
    # pair semigroups consist of standard monomials only
    _, _, _, ideal, decomp = knapsack_pipeline
    from itertools import product

    for p in decomp.pairs:
        for extra in product(range(3), repeat=len(p.face)):
            u = list(p.root)
            for k, i in enumerate(p.face):
                u[i] += extra[k]
            assert not ideal.contains(u)


def test_maximality_invariant(knapsack_pipeline):
    # for each pair and each i off the face, some generator blocks growing it
    _, _, _, ideal, decomp = knapsack_pipeline
    for p in decomp.pairs:
        for i in range(len(p.root)):
            if i in p.face:
                continue
            grown = set(p.face) | {i}
            blocked = any(
                all(g[j] <= p.root[j] for j in range(len(p.root)) if j not in grown)
                for g in ideal.generators
            )
            assert blocked


def test_relaxations_solving_long_chain(long_chain_pipeline):
    _, _, _, _, decomp = long_chain_pipeline
    v = e(1, 2, 3)
    solvers = relaxations_solving(v, decomp)
    assert face(1, 4, 5) in solvers
    # {1,4,5} is maximal among the solvers
    assert not any(set(face(1, 4, 5)) < set(f) for f in solvers)
    # the Gomory face {4,5,6} fails, as does anything containing column 6
    assert face(4, 5, 6) not in solvers
    assert all(5 not in f for f in solvers)
    # solvers are exactly the subsets of the covering pair faces
    expected = set()
    from itertools import combinations

    for cov in (face(1, 4, 5), face(3, 4)):
        for k in range(len(cov) + 1):
            expected.update(combinations(cov, k))
    assert set(solvers) == expected


def test_relaxations_solving_knapsack(knapsack_pipeline):
    _, _, _, _, decomp = knapsack_pipeline
    assert relaxations_solving((1, 0, 0), decomp) == [()]
    assert relaxations_solving((0, 3, 5), decomp) == [(), (2,)]
    with pytest.raises(NotOptimal):
        relaxations_solving((4, 0, 0), decomp)


def test_monomial_ideal_minimality():
    ideal = MonomialIdeal(((1, 0), (0, 2)), 2)
    assert ideal.contains((1, 5)) and not ideal.contains((0, 1))
    assert ideal.max_exponents() == (1, 2)


@pytest.mark.parametrize("u", [(1,), (1, 0, 0), (1.5, 0), (True, 0), ("1", 0), (-1, 3), (1, -2)])
def test_contains_refuses_a_malformed_exponent(u):
    # a short, long, float, bool, str or negative exponent is refused, never truncated
    with pytest.raises(ParseError):
        MonomialIdeal(((1, 0), (0, 2)), 2).contains(u)


@pytest.mark.parametrize("seed", range(15))
def test_tdi_implies_gomory_family_on_random_instances(seed):
    from conftest import make_instance
    from toricip.triangulation import unimodularity_report

    a, c = make_instance(seed)
    delta, _, decomp, _ = decomposition_for(a, c)
    if unimodularity_report(a, delta).tdi:
        assert is_gomory_family(decomp, delta)
        assert all(not any(p.root) for p in decomp.pairs)


def test_non_generic_order_is_flagged():
    from toricip.core import IntMatrix
    from toricip.groebner import CostOrder, toric_groebner

    a = IntMatrix(((2, 5, 8),))
    gb = toric_groebner(a, CostOrder.from_cost((0, 0, 0)))
    assert not gb.generic
    assert not initial_ideal(gb).from_generic_order


def test_decomposition_for_refines_degenerate_costs():
    from toricip.core import IntMatrix
    from toricip.stdpairs import decomposition_for

    a = IntMatrix(((1, 1, 1, 1), (0, 1, 2, 3)))
    delta, gb, decomp, refined = decomposition_for(a, (0, 0, 0, 0))
    assert refined and delta.is_triangulation
    # pairs of the refined pipeline still satisfy the zero-root theorem
    assert {p.face for p in decomp.pairs if not any(p.root)} == set(delta.maximal_faces)
    associated_report(decomp, delta)


def test_pairs_match_reference_enumeration_on_acceptance_seeds(acceptance_pipelines):
    for inst in acceptance_pipelines:
        want = reference_standard_pairs(initial_ideal(inst["gb"]))
        assert list(inst["decomp"].pairs) == want, inst["seed"]


def _census_case(rows, cost):
    return IntMatrix(rows), cost


REFERENCE_CASES = _BuiltOnUse({
    **{f"census{len(rows)}x{len(rows[0])}-{k}": partial(_census_case, rows, cost)
       for rows, costs in zip(CENSUS_MATRICES, CENSUS_COSTS) for k, cost in enumerate(costs)},
    **{name: partial(DEGENERATE.__getitem__, name) for name in DEGENERATE},  # sharp m=3 among them
    "sharp2": partial(sharp_family, 2),
})


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_pairs_match_reference_enumeration_on_named_cases(name):
    _, gb, decomp, _ = decomposition_for(*REFERENCE_CASES[name])
    assert list(decomp.pairs) == reference_standard_pairs(initial_ideal(gb))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_hypothesis_walk_matches_reference_enumeration(rng):
    inst = zero_heavy_instance(rng)
    if inst is None:
        return
    _, gb, decomp, _ = decomposition_for(*inst)
    assert list(decomp.pairs) == reference_standard_pairs(initial_ideal(gb)), inst


def _recursion_pairs(gens, n):
    gens = _minimalize(gens)
    pairs = _standard_pairs(gens, tuple(range(n)), n, {})
    assert len(set(pairs)) == len(pairs)
    return sorted((StandardPair(u, f) for u, f in pairs),
                  key=lambda p: (len(p.face), p.face, p.root))


@pytest.mark.parametrize("name, gens, n", [
    ("zero ideal", (), 3),
    ("unit ideal", ((0, 0, 0),), 3),
    ("unit ideal among others", ((0, 0, 0, 0), (1, 2, 0, 0), (0, 0, 3, 1)), 4),
    ("unused variables", ((2, 0, 1, 0, 0), (0, 0, 3, 0, 1), (1, 0, 0, 0, 2)), 5),
    ("one variable", ((3,),), 1),
    ("no variables", (), 0),
])
def test_recursion_matches_reference_on_named_ideals(name, gens, n):
    got = _recursion_pairs(gens, n)
    assert got == reference_standard_pairs(MonomialIdeal(_minimalize(gens), n))
    if name.startswith("unit"):
        assert got == []
    if name == "zero ideal":
        assert got == [StandardPair((0, 0, 0), (0, 1, 2))]
    if name == "unused variables":  # x_2 and x_4 lie in every face
        assert got and all({1, 3} <= set(p.face) for p in got)


@pytest.mark.parametrize("seed", range(200))
def test_recursion_matches_reference_on_random_antichains(seed):
    # antichains that come from no toric basis: n <= 5, exponents 0..3
    # (the unit ideal has a named case, so no generator is drawn zero)
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    unused = set(rng.sample(range(n), rng.randint(0, n // 2)))
    draws = (tuple(0 if i in unused else rng.randint(0, 3) for i in range(n)) for _ in range(99))
    gens = [g for g in draws if any(g)][:rng.randint(1, 7)]
    ideal = MonomialIdeal(_minimalize(gens), n)
    assert _recursion_pairs(gens, n) == reference_standard_pairs(ideal), gens


@pytest.mark.parametrize("seed", range(60))
def test_slices_equal_the_minimalized_slices_on_random_antichains(seed):
    # the incremental slices against minimalizing each filtered, x-zeroed set anew
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    draws = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 25))]
    gens = _minimalize(g for g in draws if any(g))
    for x in range(n):
        levels, slices = _slices(gens, x)
        assert levels == sorted({0} | {g[x] for g in gens})
        assert len(slices) == len(levels)
        for j, got in zip(levels, slices):
            assert got == _minimalize(g[:x] + (0,) + g[x + 1:] for g in gens if g[x] <= j), (gens, x)


def test_pair_scan_homes_each_face_on_the_first_simplex_that_holds_it(acceptance_pipelines):
    cases = [inst["decomp"] for inst in acceptance_pipelines]
    cases += [decomposition_for(*DEGENERATE[name])[2] for name in sorted(DEGENERATE)]
    for decomp in cases:
        inverses = decomp.delta.simplex_inverses
        for p, k, sigma, rows, _, _ in decomp.pair_scan:
            assert k == next(k for k, (s, _) in enumerate(inverses) if set(p.face) <= set(s))
            assert (sigma, rows) == inverses[k]


def test_sharp4_standard_pairs_are_fast(sharp4_pipeline):
    # the recursion splits each ideal once: the fixture's build takes about
    # 1.3 CPU s on one 2-CPU host
    _, _, delta, _, decomp, refined, seconds = sharp4_pipeline
    assert seconds < 8
    report = associated_report(decomp, delta)
    assert refined
    assert decomp.arithmetic_degree == 3723
    assert len(report.associated_sets) == 1760
    assert report.max_chain_length == 11 == report.length_bound
