"""Acceptance suite: one test per criterion, every tolerance exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria 7, 8 and 10 share one set of 100 randomized instances.
"""

import random

import pytest
from conftest import (
    CENSUS_MATRICES,
    EX1,
    EX1_COST,
    EX2_COST,
    EX3,
    GFAMILY,
    GFAMILY_COST,
    KNAPSACK,
    KNAPSACK_COST,
    LONG_CHAIN,
    LONG_CHAIN_COST,
    NONNORMAL,
    face,
    faces_1based,
    make_instance,
)
from test_hilbert import SHARP3_A, SHARP3_COST, SHARP3_TABLE
from test_stdpairs import KNAPSACK_PAIRS, LONG_CHAIN_TABLE

from toricip import oracle
from toricip.core import IntMatrix, face_determinant, gcd_maximal_minors
from toricip.groebner import CostOrder, solve_ip
from toricip.hilbert import gomory_cost, normality_report, sharp_family
from toricip.relax import build_relaxation, solve_relaxation
from toricip.stdpairs import (
    associated_report,
    decomposition_for,
    initial_ideal,
    is_gomory_family,
)
from toricip.triangulation import regular_subdivision, unimodularity_report

SEEDS = range(100)


@pytest.fixture(scope="module")
def instances():
    out = []
    for seed in SEEDS:
        a, c = make_instance(seed)
        delta, gb, decomp, refined = decomposition_for(a, c)
        assert not refined
        out.append({
            "seed": seed, "a": a, "c": c, "delta": delta, "gb": gb,
            "ideal": initial_ideal(gb), "decomp": decomp,
        })
    return out


def _oracle_decomp(inst):
    if "oracle" not in inst:
        box = [max(m - 1, 0) for m in inst["ideal"].max_exponents()]
        inst["oracle"] = oracle.brute_force_standard_pairs(
            inst["a"], inst["c"], inst["delta"], root_box=box, margin=1
        )
    return inst["oracle"]


def test_criterion_1_knapsack_fixture():
    a = IntMatrix(KNAPSACK)
    delta, gb, decomp, _ = decomposition_for(a, KNAPSACK_COST)
    ideal = initial_ideal(gb)
    assert set(ideal.generators) == {
        (0, 8, 0), (1, 0, 1), (1, 6, 0), (2, 4, 0), (3, 2, 0), (4, 0, 0)}
    assert {(p.root, p.face) for p in decomp.pairs} == KNAPSACK_PAIRS
    assert decomp.multiplicities == {(): 12, (2,): 8}
    assert decomp.arithmetic_degree == 20
    assert associated_report(decomp, delta).associated_sets == ((), (2,))
    print("ACCEPTANCE 1: PASS - knapsack initial ideal, 20 pairs, mults 12/8, degree 20")


def test_criterion_2_regular_triangulations():
    d1 = regular_subdivision(IntMatrix(EX1), EX1_COST)
    assert faces_1based(d1.maximal_faces) == [(1, 2), (2, 3), (3, 4)]
    d2 = regular_subdivision(IntMatrix(EX1), EX2_COST)
    assert faces_1based(d2.maximal_faces) == [(1, 3), (3, 4)]
    assert face(2) not in d2.faces()
    d3 = regular_subdivision(IntMatrix(EX3), EX1_COST)
    assert faces_1based(d3.maximal_faces) == [(1, 2), (2, 3), (3, 4)]
    print("ACCEPTANCE 2: PASS - triangulations of examples (i)-(iii) exact")


def test_criterion_3_long_chain_fixture():
    a = IntMatrix(LONG_CHAIN)
    delta, gb, decomp, _ = decomposition_for(a, LONG_CHAIN_COST)
    assert faces_1based(delta.maximal_faces) == [
        (1, 3, 4), (1, 4, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6)]
    assert decomp.arithmetic_degree == 70
    mults = {tuple(i + 1 for i in f): v for f, v in decomp.multiplicities.items()}
    assert mults == {f: len(r) for f, r in LONG_CHAIN_TABLE.items()}
    assert mults[(1, 4, 5)] == 8 and mults[(5, 6)] == 1 and mults[()] == 7
    assert gcd_maximal_minors(a) == 5
    for sigma in delta.maximal_faces:
        assert decomp.multiplicities[sigma] == face_determinant(a, sigma) // 5
    rep = associated_report(decomp, delta)
    assoc = set(rep.associated_sets)
    chain = [(), face(1), face(1, 4), face(1, 4, 5)]
    assert all(t in assoc for t in chain)
    assert all(set(s) < set(b) for s, b in zip(chain, chain[1:]))
    assert not is_gomory_family(decomp, delta)
    print("ACCEPTANCE 3: PASS - long-chain faces, degree 70, table mults, chain, not Gomory")


def test_criterion_4_sharp_family_m3():
    a, cost = sharp_family(3)
    assert a.entries == SHARP3_A and cost == SHARP3_COST
    delta, gb, decomp, _ = decomposition_for(a, cost)
    mults = {tuple(i + 1 for i in f): v for f, v in decomp.multiplicities.items()}
    assert mults == SHARP3_TABLE
    rep = associated_report(decomp, delta)
    assert rep.max_chain_length == 4 == 2**3 - (3 + 1)
    print("ACCEPTANCE 4: PASS - sharp m=3 matrices, 28-row table, chain length 4")


def test_criterion_5_gomory_family_fixture():
    a = IntMatrix(GFAMILY)
    delta, gb, decomp, _ = decomposition_for(a, GFAMILY_COST)
    assert faces_1based(delta.maximal_faces) == [(1, 2, 5), (1, 4, 5), (2, 5, 6), (4, 5, 6)]
    s1 = face(1, 2, 5)
    e = lambda i: tuple(1 if j == i - 1 else 0 for j in range(6))
    assert {(p.root, p.face) for p in decomp.pairs} == {
        ((0,) * 6, s1), (e(3), s1), (e(4), s1),
        ((0,) * 6, face(1, 4, 5)), ((0,) * 6, face(2, 5, 6)), ((0,) * 6, face(4, 5, 6))}
    assert is_gomory_family(decomp, delta)
    print("ACCEPTANCE 5: PASS - Gomory-family fixture: 4 cells, 6 pairs, family holds")


def test_criterion_6_normality_and_gomory_cost():
    rep = normality_report(IntMatrix(NONNORMAL))
    assert not rep.normal and rep.witness == (1, 2)
    a = IntMatrix(GFAMILY)
    res = gomory_cost(a, [face(1, 2, 6)])
    delta, _, decomp, _ = decomposition_for(a, res.cost)
    assert set(delta.maximal_faces) == {face(1, 2, 6)}
    e = lambda i: tuple(1 if j == i - 1 else 0 for j in range(6))
    assert sorted(p.root for p in decomp.pairs) == sorted(
        [(0,) * 6, e(3), e(4), e(5)])
    assert is_gomory_family(decomp, delta)
    print("ACCEPTANCE 6: PASS - non-normal witness (1,2); gomory_cost roots {0,e3,e4,e5}")


def test_criterion_7_property_suite(instances):
    g_count = 0
    for inst in instances:
        a, delta, decomp = inst["a"], inst["delta"], inst["decomp"]
        g = gcd_maximal_minors(a)
        maximal = set(delta.maximal_faces)
        # (a) zero-rooted pairs are exactly the maximal faces
        zero_faces = {p.face for p in decomp.pairs if not any(p.root)}
        assert zero_faces == maximal, inst["seed"]
        # (b) multiplicities of maximal faces are normalized volumes
        for sigma in maximal:
            assert decomp.multiplicities[sigma] == face_determinant(a, sigma) // g
        # (c)+(d) chain theorem and length bound, raised on violation
        rep = associated_report(decomp, delta)
        corank = a.n - a.d
        assert rep.max_chain_length <= min(a.d, 2**corank - (corank + 1))
        if corank == 2:
            assert rep.max_chain_length <= 1
        # (e) arithmetic degree lower bound
        assert decomp.arithmetic_degree >= sum(
            face_determinant(a, sigma) // g for sigma in maximal)
        g_count += 1
    assert g_count == len(list(SEEDS))
    print(f"ACCEPTANCE 7: PASS - theorem checks on {g_count} random instances, 0 violations")


def test_criterion_8_oracle_equivalence(instances):
    checked_b = 0
    for inst in instances:
        a, c, delta, decomp = inst["a"], inst["c"], inst["delta"], inst["decomp"]
        odec = _oracle_decomp(inst)
        assert set(odec.pairs) == set(decomp.pairs), inst["seed"]
        rng = random.Random(10_000 + inst["seed"])
        order = CostOrder.from_cost(c)
        faces = delta.faces()
        for _ in range(20):
            u = tuple(rng.randint(0, 3) for _ in range(a.n))
            b = a.apply(u)
            star = solve_ip(a, order, b)
            assert star == oracle.fiber_solve(a, c, b), inst["seed"]
            tau = faces[rng.randrange(len(faces))]
            out = solve_relaxation(build_relaxation(a, c, delta, tau, b))
            single = oracle.enumerate_lattice_points(
                oracle.q_polytope(a, c, star, tau), limit=2
            ) == [(0,) * (a.n - a.d)]
            assert out.solves_ip == single, inst["seed"]
            checked_b += 1
    print(f"ACCEPTANCE 8: PASS - oracle == algebraic on {len(instances)} instances, "
          f"{checked_b} right-hand sides, 0 discrepancies")


def test_criterion_9_tdi_pipeline():
    a = IntMatrix(EX1)
    delta, gb, decomp, _ = decomposition_for(a, EX1_COST)
    rep = unimodularity_report(a, delta)
    assert rep.tdi
    assert all(not any(p.root) for p in decomp.pairs)
    assert {p.face for p in decomp.pairs} == set(delta.maximal_faces)
    assert is_gomory_family(decomp, delta)
    print("ACCEPTANCE 9: PASS - TDI fixture has only (0, sigma) pairs")


def test_criterion_10_kannan_guard(instances):
    guarded = 0
    for inst in instances:
        bound = oracle.kannan_root_bound(inst["a"], inst["c"])
        if bound is None:
            continue
        odec = _oracle_decomp(inst)
        for p in odec.pairs:
            assert all(v <= bound for v in p.root), inst["seed"]
        guarded += 1
    assert guarded > 0
    print(f"ACCEPTANCE 10: PASS - Kannan guard on {guarded} nondegenerate instances")


def test_census_substitute_smoke():
    # full triangulation censuses are out of scope; sampled generic costs must
    # always produce certificate-valid triangulations on the census matrices
    from toricip.groebner import is_generic
    from toricip.linalg import dot

    sampled = 0
    for rows in CENSUS_MATRICES:
        a = IntMatrix(rows)
        rng = random.Random(4242)
        found = 0
        while found < 3:
            c = tuple(rng.randint(0, 60) for _ in range(a.n))
            if not is_generic(a, c)[0]:
                continue
            delta = regular_subdivision(a, c)
            if not delta.is_triangulation:
                continue
            for f, y in zip(delta.maximal_faces, delta.certificates):
                for j in range(a.n):
                    val = dot(a.column(j), y)
                    assert val == c[j] if j in f else val < c[j]
            found += 1
            sampled += 1
    # the 7 x 12 matrix is reported to support a Gomory family at every
    # generic cost; spot-check the property at one sampled cost
    a = IntMatrix(CENSUS_MATRICES[0])
    rng = random.Random(9)
    while True:
        c = tuple(rng.randint(0, 60) for _ in range(a.n))
        if is_generic(a, c)[0]:
            break
    delta, _, decomp, _ = decomposition_for(a, c)
    assert is_gomory_family(decomp, delta)
    print(f"ACCEPTANCE census substitute: PASS - {sampled} sampled generic costs certify; "
          "7x12 sample is a Gomory family")
