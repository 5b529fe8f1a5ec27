import random

import pytest
from conftest import (
    CENSUS_COSTS,
    CENSUS_MATRICES,
    DEGENERATE,
    EX1,
    EX1_COST,
    EX2_COST,
    GFAMILY,
    GFAMILY_COST,
    KNAPSACK,
    KNAPSACK_COST,
    LONG_CHAIN,
    LONG_CHAIN_COST,
    _BuiltOnUse,
    counted_lps,
    make_instance,
)
from reference_groebner import hermite_toric_groebner, lll_toric_groebner

from toricip import fibers, groebner, oracle
from toricip.core import IntMatrix, kernel_lattice_basis
from toricip.errors import DomainError, Infeasible, ParseError
from toricip.groebner import (
    CostOrder,
    is_generic,
    normal_form,
    positive_grading,
    solve_ip,
    toric_groebner,
)
from toricip.hilbert import sharp_family
from toricip.linalg import dot, lll_reduce


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


def _assert_reduced(gb):
    for i, b in enumerate(gb.elements):
        assert gb.order.key(b.head) > gb.order.key(b.tail)
        for j, other in enumerate(gb.elements):
            if i != j:
                assert not all(x <= y for x, y in zip(other.head, b.head))
                assert not all(x <= y for x, y in zip(other.head, b.tail))


def test_reducedness():
    _assert_reduced(toric_groebner(IntMatrix(KNAPSACK), CostOrder.from_cost(KNAPSACK_COST)))


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


def test_an_order_built_from_any_iterable_is_equal():
    # the cost is converted before its length is read: a generator or a map
    # used to raise TypeError from len()
    orders = [CostOrder((x for x in (1, 2, 3))), CostOrder(map(int, "123")), CostOrder((1, 2, 3)),
              CostOrder.from_cost(x for x in (1, 2, 3)), CostOrder.from_cost(map(int, "123"))]
    assert all(order == orders[2] and order.cost == (1, 2, 3) for order in orders)
    with pytest.raises(ParseError, match="cost of the order"):
        CostOrder(x for x in (1, 2.5, 3))


def test_sharp3_completions_fully_reduce_143_s_pairs(monkeypatch):
    # every completion strips each input and remainder of its common factor
    # and runs the Gebauer-Moeller update on each element it adds, and only
    # the variables the start binomials cannot reach get a saturation pass.
    # With a pass for each of the 10 variables the completions fully reduced
    # 371 S-pairs for the same basis; with the coprime-heads test alone, 567;
    # unstripped passes, each followed by a division by its cheapest
    # variable, 971
    calls = []
    reduce_full = groebner._reduce_full
    monkeypatch.setattr(groebner, "_reduce_full", lambda *args: calls.append(1) or reduce_full(*args))
    a, cost = sharp_family(3)
    gb = toric_groebner.__wrapped__(a, CostOrder.from_cost(cost))
    assert (len(gb.elements), gb.generic) == (13, False)
    assert len(calls) == 143


@pytest.mark.parametrize("m, completions, size", [(3, 5, 13), (4, 9, 72)])
def test_sharp_saturates_by_fewer_variables(monkeypatch, m, completions, size):
    # 4 of 10 and 8 of 19 saturation passes, then the final completion; m=4
    # plans 10 passes and re-plans a shorter rest on a pass's basis
    calls = []
    completion = groebner._completion
    monkeypatch.setattr(groebner, "_completion", lambda *args: calls.append(1) or completion(*args))
    a, cost = sharp_family(m)
    gb = toric_groebner.__wrapped__(a, CostOrder.from_cost(cost))
    assert (len(calls), len(gb.elements)) == (completions, size)


def _support(u):
    return {j for j, e in enumerate(u) if e}


def _reach(gens, chosen):
    """The variables made units by the chosen ones: a side inside the units adds the other side."""
    reach = set(chosen)
    grown = True
    while grown:
        grown = False
        for u, v in gens:
            for p, q in ((u, v), (v, u)):
                if _support(p) <= reach and not _support(q) <= reach:
                    reach |= _support(q)
                    grown = True
    return reach


LEMMA_CASES = {f"seed-{seed}": (lambda seed=seed: make_instance(seed)[0]) for seed in range(100)}
LEMMA_CASES.update({f"census{len(rows)}x{len(rows[0])}": (lambda rows=rows: IntMatrix(rows))
                    for rows in CENSUS_MATRICES})
LEMMA_CASES.update({f"sharp{m}": (lambda m=m: sharp_family(m)[0]) for m in (3, 4)})


@pytest.mark.parametrize("name", sorted(LEMMA_CASES))
def test_saturating_variables_reach_every_variable(name):
    # the lemma's hypothesis, checked without a reference basis: once the
    # chosen variables are units, the start binomials make every variable one
    a = LEMMA_CASES[name]()
    gens = [(tuple(max(v, 0) for v in col), tuple(max(-v, 0) for v in col))
            for col in lll_reduce(kernel_lattice_basis(a).columns())]
    chosen = groebner._saturating_variables(gens, a.n)
    assert len(set(chosen)) == len(chosen) and set(chosen) <= set(range(a.n))
    assert _reach(gens, chosen) == set(range(a.n))
    # no chosen variable was already reached by the ones before it
    assert all(j not in _reach(gens, chosen[:k]) for k, j in enumerate(chosen))
    if name.startswith("sharp"):
        assert len(chosen) == {"sharp3": 4, "sharp4": 10}[name]


@pytest.mark.parametrize("name", sorted(LEMMA_CASES))
def test_each_replan_reaches_every_variable_from_its_seed(monkeypatch, name):
    # after the pass by x_s the rest is planned again on that pass's basis,
    # from s: the lemma's hypothesis on that basis, checked without a reference
    a = LEMMA_CASES[name]()
    plans = []
    choose = groebner._saturating_variables

    def recorded(gens, n, seed=()):
        plans.append((list(gens), seed, choose(gens, n, seed)))
        return list(plans[-1][2])

    monkeypatch.setattr(groebner, "_saturating_variables", recorded)
    toric_groebner.__wrapped__(a, CostOrder.from_cost((1,) * a.n))
    assert plans[0][1] == () and all(len(seed) == 1 for _, seed, _ in plans[1:])
    for gens, seed, chosen in plans:
        assert not set(seed) & set(chosen) and len(set(chosen)) == len(chosen)
        assert _reach(gens, [*seed, *chosen]) == set(range(a.n))
        assert all(j not in _reach(gens, [*seed, *chosen[:k]]) for k, j in enumerate(chosen))
    if name.startswith("sharp"):  # a plan, then one per pass with passes left after it
        assert len(plans) == {"sharp3": 4, "sharp4": 8}[name]


def test_a_seed_is_closed_before_the_greedy_grows_it():
    # x0 - x1 x2: x0 alone makes x1 and x2 units, so seed (0,) needs no pass;
    # x1 alone reaches nothing, and x0 and x2 each complete it, the lowest first
    gens = [((1, 0, 0), (0, 1, 1))]
    assert groebner._saturating_variables(gens, 3, (0,)) == []
    assert groebner._saturating_variables(gens, 3, (1,)) == [0]
    assert groebner._saturating_variables(gens, 3) == [0]


def test_a_negative_cost_basis_is_reduced():
    # x2 x3 - x1 x3 was kept next to x2 - x1: its key, 2, sorts before x2's, 5,
    # so the head minimalization met the multiple before its divisor
    gb = toric_groebner(IntMatrix(((1, 1, 3, 4),)), CostOrder((-1, 5, -3, 0)))
    assert [(b.head, b.tail) for b in gb.elements] == [
        ((3, 0, 0, 0), (0, 0, 1, 0)), ((0, 0, 0, 1), (1, 0, 1, 0)), ((0, 1, 0, 0), (1, 0, 0, 0))]


@pytest.mark.parametrize("seed", range(40))
def test_negative_costs_give_the_basis_of_the_shifted_cost(seed):
    # every kernel binomial is homogeneous in w, so c and c + lambda w order
    # each fiber alike and have the same reduced basis
    rng = random.Random(seed)
    done = 0
    while done < 3:
        d = rng.randint(1, 3)
        n = d + rng.randint(1, 3)
        try:
            a = IntMatrix(tuple(tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(d)))
        except DomainError:
            continue
        cost = tuple(rng.randint(-6, 4) for _ in range(n))
        if min(cost) >= 0:
            continue
        w = positive_grading(a)
        lam = max(-(c // g) for c, g in zip(cost, w))
        shifted = tuple(c + lam * g for c, g in zip(cost, w))
        assert min(shifted) >= 0
        gb = toric_groebner(a, CostOrder(cost))
        ref = toric_groebner(a, CostOrder(shifted))
        _assert_reduced(gb)
        assert {(b.head, b.tail) for b in gb.elements} == {(b.head, b.tail) for b in ref.elements}
        assert gb.generic == ref.generic
        assert gb.elements == lll_toric_groebner(a, gb.order).elements
        done += 1


def test_toric_groebner_on_a_built_matrix_runs_no_lp(monkeypatch):
    # the saturation passes grade by the y that IntMatrix validation kept
    matrices = [IntMatrix(rows) for rows in (KNAPSACK, EX1, LONG_CHAIN, GFAMILY)]
    matrices.append(sharp_family(3)[0])
    calls = counted_lps(monkeypatch)
    for a in matrices:
        assert toric_groebner.__wrapped__(a, CostOrder.from_cost((1,) * a.n)).elements
    assert calls == []


def test_positive_grading():
    for rows in [KNAPSACK, EX1, ((1, -1, 3), (0, 2, 1))]:
        a = IntMatrix(rows)
        w = positive_grading(a)
        assert all(v > 0 for v in w)
        assert w == tuple(dot(a.grading, a.column(j)) for j in range(a.n))


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


NAMED = _BuiltOnUse({
    "knapsack": lambda: (IntMatrix(KNAPSACK), KNAPSACK_COST),
    "ex1": lambda: (IntMatrix(EX1), EX1_COST),
    "ex1-ex2": lambda: (IntMatrix(EX1), EX2_COST),
    "long-chain": lambda: (IntMatrix(LONG_CHAIN), LONG_CHAIN_COST),
    "long-chain-zero": lambda: (IntMatrix(LONG_CHAIN), (0,) * 6),
    "gfamily": lambda: (IntMatrix(GFAMILY), GFAMILY_COST),
    "sharp3": lambda: sharp_family(3),
    # skipping the last saturation pass changes this basis
    "last-pass": lambda: (IntMatrix(((1, 4, 1, 3, 2, 1), (4, 4, 0, 2, 3, 1), (4, 3, 1, 2, 0, 1))),
                          (7, 0, -3, 17, 27, 0)),
})


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


# the completion alone: the reference's older completion, with no criterion
# but coprime heads, from the library's LLL start
LLL_SEEDED = {f"seed-{seed}": (lambda seed=seed: make_instance(seed)) for seed in range(100)}
LLL_SEEDED.update({name: (lambda name=name: DEGENERATE[name]) for name in DEGENERATE})
LLL_SEEDED.update({
    f"census{len(rows)}x{len(rows[0])}-{k}": (lambda rows=rows, cost=cost: (IntMatrix(rows), cost))
    for rows, costs in zip(CENSUS_MATRICES, CENSUS_COSTS) for k, cost in enumerate(costs)})


@pytest.mark.parametrize("name", sorted(LLL_SEEDED))
def test_basis_matches_lll_seeded_reference(name):
    a, cost = LLL_SEEDED[name]()
    order = CostOrder.from_cost(cost)
    gb, ref = toric_groebner(a, order), lll_toric_groebner(a, order)
    assert (gb.elements, gb.generic) == (ref.elements, ref.generic)


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
    for b in gb.elements:
        assert a.apply(b.vector) == (0,) * a.d
        assert all(p == 0 or m == 0 for p, m in zip(b.head, b.tail))
    _assert_reduced(gb)
    rng = random.Random(7)
    for _ in range(4):
        rhs = a.apply(tuple(rng.randint(0, 2) for _ in range(a.n)))
        assert solve_ip(a, order, rhs) == oracle.fiber_solve(a, cost, rhs)
