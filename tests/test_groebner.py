import random

import pytest
from conftest import (
    EX1,
    EX1_COST,
    EX2_COST,
    GFAMILY,
    GFAMILY_COST,
    KNAPSACK,
    KNAPSACK_COST,
    LONG_CHAIN,
    LONG_CHAIN_COST,
    make_instance,
)
from reference_groebner import hermite_toric_groebner

from toricip import fibers, groebner, oracle
from toricip.core import IntMatrix
from toricip.errors import Infeasible, ParseError
from toricip.groebner import (
    CostOrder,
    is_generic,
    normal_form,
    positive_grading,
    solve_ip,
    toric_groebner,
)
from toricip.hilbert import sharp_family
from toricip.linalg import dot


def test_knapsack_reduced_basis():
    a = IntMatrix(KNAPSACK)
    gb = toric_groebner(a, CostOrder.from_cost(KNAPSACK_COST))
    heads = {b.head for b in gb.elements}
    assert heads == {(0, 8, 0), (1, 0, 1), (1, 6, 0), (2, 4, 0), (3, 2, 0), (4, 0, 0)}
    # tails pin the full binomials: x1^4 - x3, x2^8 - x3^5, ...
    as_pairs = {(b.head, b.tail) for b in gb.elements}
    assert ((4, 0, 0), (0, 0, 1)) in as_pairs
    assert ((0, 8, 0), (0, 0, 5)) in as_pairs
    assert gb.generic


def test_basis_elements_are_kernel_binomials_with_disjoint_support():
    a = IntMatrix(KNAPSACK)
    gb = toric_groebner(a, CostOrder.from_cost(KNAPSACK_COST))
    for b in gb.elements:
        assert all(v == 0 for v in a.apply(b.vector))
        assert all(p == 0 or m == 0 for p, m in zip(b.head, b.tail))
        assert dot(KNAPSACK_COST, b.head) > dot(KNAPSACK_COST, b.tail)


def test_reducedness():
    a = IntMatrix(KNAPSACK)
    gb = toric_groebner(a, CostOrder.from_cost(KNAPSACK_COST))
    for i, b in enumerate(gb.elements):
        for j, other in enumerate(gb.elements):
            if i == j:
                continue
            assert not all(x <= y for x, y in zip(other.head, b.head))
            assert not all(x <= y for x, y in zip(other.head, b.tail))


def test_square_matrix_gives_empty_basis():
    a = IntMatrix(((1, 0), (0, 1)))
    gb = toric_groebner(a, CostOrder.from_cost((3, 7)))
    assert gb.elements == () and gb.generic


def test_normal_form_refuses_a_negative_exponent():
    gb = toric_groebner(IntMatrix(KNAPSACK), CostOrder.from_cost(KNAPSACK_COST))
    with pytest.raises(ParseError, match="negative"):
        normal_form(gb, (-1, 0, 0))


def test_a_malformed_order_cost_is_named():
    a = IntMatrix(KNAPSACK)
    for cost in [(1, 2), (1, 2, 3, 4)]:
        order = CostOrder(cost)
        with pytest.raises(ParseError, match="cost of the order"):
            toric_groebner(a, order)
        with pytest.raises(ParseError, match="cost of the order"):
            solve_ip(a, order, (8,))
    # an entry that is not an int is refused when the order is built
    for cost in [(1, 2.5, 3), (1, True, 3), [1, "2", 3]]:
        with pytest.raises(ParseError, match="cost of the order"):
            CostOrder(cost)
        with pytest.raises(ParseError, match="cost of the order"):
            CostOrder.from_cost(cost)


def test_an_order_built_from_a_list_is_checked_and_hashable():
    # toric_groebner's cache used to raise TypeError: unhashable type: 'list'
    a = IntMatrix(((1, 2, 3),))
    order = CostOrder([1, 2, 3])
    assert order.cost == (1, 2, 3)
    assert order == CostOrder.from_cost([1, 2, 3]) and hash(order) == hash(((1, 2, 3),))
    assert toric_groebner(a, order) is toric_groebner(a, CostOrder((1, 2, 3)))


def test_sharp3_completions_fully_reduce_567_s_pairs(monkeypatch):
    # every completion strips each input and remainder of its common factor;
    # unstripped saturation passes, each followed by a division by its
    # cheapest variable, fully reduced 971 S-pairs for the same basis
    calls = []
    reduce_full = groebner._reduce_full
    monkeypatch.setattr(groebner, "_reduce_full", lambda *args: calls.append(1) or reduce_full(*args))
    a, cost = sharp_family(3)
    gb = toric_groebner.__wrapped__(a, CostOrder.from_cost(cost))
    assert (len(gb.elements), gb.generic) == (13, False)
    assert len(calls) == 567


def test_positive_grading():
    for rows in [KNAPSACK, EX1, ((1, -1, 3), (0, 2, 1))]:
        a = IntMatrix(rows)
        w = positive_grading(a)
        assert all(v > 0 for v in w)


def test_is_generic_cases():
    a = IntMatrix(KNAPSACK)
    flag, witness = is_generic(a, KNAPSACK_COST)
    assert flag and witness is None
    flag, witness = is_generic(a, (0, 0, 0))
    assert not flag
    assert witness is not None and all(v == 0 for v in a.apply(witness.vector))
    assert is_generic(IntMatrix(EX1), EX1_COST)[0]


def test_solve_ip_examples():
    a = IntMatrix(KNAPSACK)
    order = CostOrder.from_cost(KNAPSACK_COST)
    assert solve_ip(a, order, (27,)) == (1, 5, 0)
    assert solve_ip(a, order, (0,)) == (0, 0, 0)
    assert solve_ip(a, order, (8,)) == (0, 0, 1)
    with pytest.raises(Infeasible):
        solve_ip(a, order, (1,))


@pytest.mark.parametrize("seed", range(5))
def test_solve_ip_agrees_with_fiber_oracle(seed):
    rng = random.Random(seed)
    a = IntMatrix(EX1)
    order = CostOrder.from_cost(EX1_COST)
    for _ in range(10):
        u = tuple(rng.randint(0, 4) for _ in range(a.n))
        b = a.apply(u)
        assert solve_ip(a, order, b) == oracle.fiber_solve(a, EX1_COST, b)


def test_order_ideal_property():
    # anything below an optimum is its own normal form
    a = IntMatrix(KNAPSACK)
    order = CostOrder.from_cost(KNAPSACK_COST)
    gb = toric_groebner(a, order)
    star = solve_ip(a, order, (27,))
    for i in range(star[0] + 1):
        for j in range(star[1] + 1):
            for k in range(star[2] + 1):
                assert normal_form(gb, (i, j, k)) == (i, j, k)


def test_test_set_property():
    # every feasible non-optimal point is improved by some basis element
    a = IntMatrix(KNAPSACK)
    order = CostOrder.from_cost(KNAPSACK_COST)
    gb = toric_groebner(a, order)
    rng = random.Random(3)
    for _ in range(40):
        u = tuple(rng.randint(0, 6) for _ in range(3))
        opt = oracle.fiber_solve(a, KNAPSACK_COST, a.apply(u))
        if u == opt:
            continue
        improved = False
        for b in gb.elements:
            if all(h <= x for h, x in zip(b.head, u)):
                v = tuple(x - h + t for x, h, t in zip(u, b.head, b.tail))
                improved = dot(KNAPSACK_COST, v) < dot(KNAPSACK_COST, u)
                break
        assert improved


@pytest.mark.parametrize("cost", [(10000, 100, 1), (1, 1, 1), (3, 9, 2), (0, 5, 17)])
def test_paper_generators_lie_in_the_ideal(cost):
    # the published generating set x1^4 - x3, x2^2 - x1 x3 must reduce to zero
    # under every order: both sides of each binomial share a normal form
    a = IntMatrix(KNAPSACK)
    gb = toric_groebner(a, CostOrder.from_cost(cost))
    for u, v in [((4, 0, 0), (0, 0, 1)), ((0, 2, 0), (1, 0, 1))]:
        assert normal_form(gb, u) == normal_form(gb, v)


def test_phi_bijectivity_on_box():
    # distinct normal forms have distinct images A u
    a = IntMatrix(EX1)
    gb = toric_groebner(a, CostOrder.from_cost(EX1_COST))
    forms = set()
    images = set()
    for u in fibers.factor(((1, 1, 1, 1),)).points((4,)):  # all |u| = 4
        nf = normal_form(gb, u)
        if nf in forms:
            continue
        forms.add(nf)
        img = a.apply(nf)
        assert img not in images
        images.add(img)


NAMED = {
    "knapsack": (IntMatrix(KNAPSACK), KNAPSACK_COST),
    "ex1": (IntMatrix(EX1), EX1_COST),
    "ex1-ex2": (IntMatrix(EX1), EX2_COST),
    "long-chain": (IntMatrix(LONG_CHAIN), LONG_CHAIN_COST),
    "long-chain-zero": (IntMatrix(LONG_CHAIN), (0,) * 6),
    "gfamily": (IntMatrix(GFAMILY), GFAMILY_COST),
    "sharp3": sharp_family(3),
    # skipping the last saturation pass changes this basis
    "last-pass": (IntMatrix(((1, 4, 1, 3, 2, 1), (4, 4, 0, 2, 3, 1), (4, 3, 1, 2, 0, 1))),
                  (7, 0, -3, 17, 27, 0)),
}


def _assert_matches_hermite_seeded(a, cost):
    # the reduced basis of an order does not depend on the lattice basis
    # the saturation starts from
    order = CostOrder.from_cost(cost)
    gb, ref = toric_groebner(a, order), hermite_toric_groebner(a, order)
    assert (gb.elements, gb.generic) == (ref.elements, ref.generic)
    assert gb.lattice == ref.lattice


@pytest.mark.parametrize("name", sorted(NAMED))
def test_basis_matches_hermite_seeded_reference(name):
    _assert_matches_hermite_seeded(*NAMED[name])


@pytest.mark.parametrize("seed", [s for s in range(41) if s != 37])
def test_basis_matches_hermite_seeded_reference_on_acceptance_seeds(seed):
    # seed 34's Hermite basis has entries up to 92; its saturation grows large
    _assert_matches_hermite_seeded(*make_instance(seed))


# (instance, basis size, generic): the Hermite-seeded saturation takes
# seconds (seed 37, the first degenerate cost) or minutes on these
SLOW_FOR_HERMITE = {
    "seed-37": (lambda: make_instance(37), 7, True),
    "degenerate-a": (lambda: (IntMatrix(((2, 2, 3, 3, 1, 3), (3, 4, 2, 3, 0, 3),
                                         (2, 1, 3, 0, 4, 1))), (0, 1, 1, 1, 0, 2)), 19, False),
    "degenerate-b": (lambda: (IntMatrix(((4, 4, 3, 3, 2, 2), (2, 0, 3, 2, 2, 4),
                                         (4, 4, 2, 2, 1, 3))), (0, 0, 2, 0, 2, 2)), 10, False),
}


@pytest.mark.parametrize("name", sorted(SLOW_FOR_HERMITE))
def test_bases_beyond_the_reference(name):
    instance, size, generic = SLOW_FOR_HERMITE[name]
    a, cost = instance()
    order = CostOrder.from_cost(cost)
    gb = toric_groebner(a, order)
    assert (len(gb.elements), gb.generic) == (size, generic)
    for i, b in enumerate(gb.elements):
        assert a.apply(b.vector) == (0,) * a.d
        assert all(p == 0 or m == 0 for p, m in zip(b.head, b.tail))
        assert order.key(b.head) > order.key(b.tail)
        for j, other in enumerate(gb.elements):
            if i != j:
                assert not all(x <= y for x, y in zip(other.head, b.head))
                assert not all(x <= y for x, y in zip(other.head, b.tail))
    rng = random.Random(7)
    for _ in range(4):
        rhs = a.apply(tuple(rng.randint(0, 2) for _ in range(a.n)))
        assert solve_ip(a, order, rhs) == oracle.fiber_solve(a, cost, rhs)
