import itertools
import random
import sys
from fractions import Fraction
from functools import partial

import pytest
from conftest import DEGENERATE, GFAMILY_COST, KNAPSACK_COST, _BuiltOnUse, face, make_instance
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_enum import reference_boxed, reference_lp_sweep
from reference_oracle import (
    reference_face_roots,
    reference_roots,
    reference_thresholds,
    reference_undominated,
)
from test_stdpairs import REFERENCE_CASES

from toricip import fibers, oracle
from toricip.core import IntMatrix, kernel_lattice_basis
from toricip.errors import BoundUnavailable, Degenerate, NotAFace, ParseError, Unbounded
from toricip.linalg import dot
from toricip.stdpairs import decomposition_for, initial_ideal
from toricip.oracle import (
    IneqPolytope,
    brute_force_standard_pairs,
    enumerate_lattice_points,
    fiber_solve,
    is_standard_polytope,
    kannan_bound,
    lattice_points_boxed,
    width_along,
)

# the standard polytope the paper prints for the knapsack pair ((1,0,0), {}),
# with the cost row as computed from the printed basis
PAPER_QUAD = IneqPolytope.from_rows(
    [((-1, 4), 1), ((2, 0), 0), ((-1, -1), 0), ((9801, -39999), 0)]
)


def test_paper_standard_polytope_is_singleton():
    assert enumerate_lattice_points(PAPER_QUAD) == [(0, 0)]


def test_unit_square():
    sq = IneqPolytope.from_rows(
        [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    )
    assert enumerate_lattice_points(sq) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_unbounded_raises():
    ray = IneqPolytope.from_rows([((1, 0), 0), ((0, 1), 0)])
    assert not ray.is_bounded()
    with pytest.raises(Unbounded):
        enumerate_lattice_points(ray)


@pytest.mark.parametrize("seed", range(25))
def test_boxed_enumeration_matches_lp_sweep(seed):
    """The Fourier-Motzkin sweep against the test-only LP and vertex-box sweeps."""
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    rows = []
    for i in range(dim):
        lo = [0] * dim
        lo[i] = -1
        hi = [0] * dim
        hi[i] = 1
        rows += [(tuple(lo), rng.randint(0, 4)), (tuple(hi), rng.randint(0, 4))]
    for _ in range(rng.randint(0, 3)):
        rows.append((tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-2, 6)))
    poly = IneqPolytope.from_rows(rows)
    swept = enumerate_lattice_points(poly)
    assert swept == reference_lp_sweep(poly.rows, dim)
    assert swept == reference_boxed(poly.rows, dim)
    assert lattice_points_boxed(list(poly.rows), dim) == swept


def test_q_polytope_optimum_is_singleton(knapsack_pipeline):
    a, _, _, _, _ = knapsack_pipeline
    best = fiber_solve(a, KNAPSACK_COST, (27,))
    assert best == (1, 5, 0)
    poly = oracle.q_polytope(a, KNAPSACK_COST, best, ())
    assert enumerate_lattice_points(poly) == [(0, 0)]
    # a non-optimal point's polytope picks up an extra lattice point
    poly2 = oracle.q_polytope(a, KNAPSACK_COST, (11, 1, 0), ())
    assert len(enumerate_lattice_points(poly2, limit=2)) == 2


def test_q_polytope_equals_the_checked_build_of_its_rows():
    # q_polytope builds its record from rows of checked data; the checking
    # constructor makes the same record from them, rows as tuples
    for seed in range(0, 100, 5):
        a, cost = make_instance(seed)
        b = a.apply((1,) * a.n)
        u = fiber_solve(a, cost, b)
        for tau in ((), (0,), tuple(range(a.n))):
            poly = oracle.q_polytope(a, cost, u, tau)
            checked = IneqPolytope.from_rows([(list(s), o) for s, o in poly.rows])
            assert poly == checked and hash(poly) == hash(checked)
            assert len(poly.rows) == a.n - len(tau) + 1


def test_fiber_solve_examples(long_chain_pipeline):
    a = IntMatrix(((2, 5, 8),))
    assert fiber_solve(a, KNAPSACK_COST, (0,)) == (0, 0, 0)
    assert fiber_solve(a, KNAPSACK_COST, (3,)) is None
    opt, fib = fiber_solve(a, KNAPSACK_COST, (10,), with_fiber=True)
    assert opt == (0, 2, 0) and set(fib) == {(5, 0, 0), (0, 2, 0), (1, 0, 1)}
    lc, _, _, _, _ = long_chain_pipeline
    v = (1, 1, 1, 0, 0, 0)
    from conftest import LONG_CHAIN_COST

    assert fiber_solve(lc, LONG_CHAIN_COST, lc.apply(v)) == v


def test_is_standard_polytope_examples(knapsack_pipeline):
    a, _, _, _, _ = knapsack_pipeline
    assert is_standard_polytope(a, KNAPSACK_COST, (0, 2, 0), face(3))
    assert not is_standard_polytope(a, KNAPSACK_COST, (0, 8, 0), face(3))
    assert is_standard_polytope(a, KNAPSACK_COST, (0, 0, 0), face(3))
    # the root is alone in its fiber (b = 2): only the cost cut may be dropped
    assert is_standard_polytope(a, KNAPSACK_COST, (1, 0, 0), ())
    for tau in (face(1), (1, 0)):  # well-formed, in any order, but not faces
        with pytest.raises(NotAFace):
            is_standard_polytope(a, KNAPSACK_COST, (0, 0, 0), tau)


@pytest.mark.parametrize("tau", [(99,), (-1,), ("0",), (1, 1), (True,), (0.0,), (3,), (2.0,)])
def test_is_standard_polytope_refuses_a_malformed_face(knapsack_pipeline, tau):
    # the face goes through errors._face, as in build_relaxation; it used to be
    # sorted by hand, so a malformed face raised NotAFace, or a ParseError from
    # q_polytope when it compared equal to a face, as (2.0,) does to (2,)
    a, _, _, _, _ = knapsack_pipeline
    with pytest.raises(ParseError, match="distinct int indices"):
        is_standard_polytope(a, KNAPSACK_COST, (0, 0, 0), tau)


def test_width_examples():
    sq = IneqPolytope.from_rows(
        [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    )
    assert width_along(sq, (1, 0)) == 1
    # translation invariance
    sq2 = IneqPolytope.from_rows(
        [((1, 0), 8), ((-1, 0), -7), ((0, 1), 4), ((0, -1), -3)]
    )
    assert width_along(sq2, (1, 0)) == 1
    assert width_along(sq2, (2, 1)) == width_along(sq, (2, 1)) == 3
    with pytest.raises(Unbounded):
        width_along(IneqPolytope.from_rows([((1, 0), 0), ((0, 1), 0)]), (1, 1))


def test_width_cross_checked_by_vertices():
    # width of the paper's triangular standard polytope along its cost row
    tri = IneqPolytope.from_rows(
        [((-1, 4), 0), ((2, 0), 2), ((9801, -39999), 0)]
    )
    crow = (9801, -39999)
    w = width_along(tri, crow)
    verts = [(0, 0), (1, Fraction(1, 4)), (1, Fraction(9801, 39999))]
    vals = [dot(crow, v) for v in verts]
    assert w == max(vals) - min(vals)


def test_width_of_singleton_simplex_is_zero(knapsack_pipeline):
    a, _, _, _, _ = knapsack_pipeline
    poly = oracle.q_polytope(a, KNAPSACK_COST, (0, 0, 0), face(3))
    crow = oracle.cost_row(a, KNAPSACK_COST)
    assert width_along(poly, crow) == 0


def test_standard_polytopes_satisfy_narrow_width_bound(knapsack_pipeline):
    # some defining row sees width at most M(n+2) on every standard polytope
    a, delta, _, ideal, decomp = knapsack_pipeline
    from toricip.core import kernel_lattice_basis

    lat = kernel_lattice_basis(a)
    crow = oracle.cost_row(a, KNAPSACK_COST)
    ndim = lat.corank
    for p in decomp.pairs:
        taubar = [i for i in range(a.n) if i not in set(p.face)]
        rows = [(lat.matrix[i], p.root[i]) for i in taubar] + [(crow, 0)]
        poly = IneqPolytope.from_rows(rows)
        m_norm = max(sum(abs(v) for v in s) for s, _ in rows)
        assert min(width_along(poly, s) for s, _ in rows) <= m_norm * (ndim + 2)


def test_kannan_bound_paper_rows():
    rows = [(-1, 4), (2, 0), (-1, -1), (9801, -39999)]
    assert kannan_bound(rows, 2) == Fraction(2 * 49800 * 4 * 79998, 2)


def test_kannan_identity_and_scaling():
    ident = [(1, 0), (0, 1)]
    assert kannan_bound(ident, 2) == 2 * 1 * 4 * 1
    rows = [(-1, 4), (2, 1), (3, -1)]
    base = kannan_bound(rows, 2)
    scaled = kannan_bound([tuple(5 * v for v in r) for r in rows], 2)
    # M scales by 5, minors by 25, their ratio cancels
    assert scaled == 5 * base
    with pytest.raises(Degenerate):
        kannan_bound([(1, 0), (2, 0), (0, 1)], 2)


def test_brute_force_knapsack(knapsack_pipeline):
    a, delta, _, ideal, alg = knapsack_pipeline
    box = [max(m - 1, 0) for m in ideal.max_exponents()]
    dec = brute_force_standard_pairs(a, KNAPSACK_COST, delta, root_box=box, margin=1)
    assert set(dec.pairs) == set(alg.pairs)
    assert dec.multiplicities == {(): 12, (2,): 8}  # 12 quadrangular, 8 triangular


def test_brute_force_trivial_and_gfamily(gfamily_pipeline):
    one = IntMatrix(((1,),))
    from toricip.triangulation import regular_subdivision

    d1 = regular_subdivision(one, (0,))
    dec = brute_force_standard_pairs(one, (0,), d1, root_box=[0])
    assert [(p.root, p.face) for p in dec.pairs] == [((0,), (0,))]

    a, delta, _, ideal, alg = gfamily_pipeline
    box = [max(m - 1, 0) for m in ideal.max_exponents()]
    dec = brute_force_standard_pairs(a, GFAMILY_COST, delta, root_box=box, margin=1)
    assert set(dec.pairs) == set(alg.pairs)


def test_bound_unavailable_and_box_fallback():
    # a duplicated column yields a zero row in the kernel basis, hence a zero
    # maximal minor in the lifted row system
    a = IntMatrix(((1, 0, 1), (0, 1, 0)))
    from toricip.triangulation import regular_subdivision

    c = (1, 2, 3)
    delta = regular_subdivision(a, c)
    assert oracle.kannan_root_bound(a, c) is None
    with pytest.raises(BoundUnavailable):
        brute_force_standard_pairs(a, c, delta)
    dec = brute_force_standard_pairs(a, c, delta, root_box=[0, 0, 0])
    assert [(p.root, p.face) for p in dec.pairs] == [((0, 0, 0), (0, 1))]


def test_emptypolys_lemma_both_parts(knapsack_pipeline):
    # (i) u optimal iff Q_u is a singleton; (ii) relaxation solves iff
    # Q_u^taubar is a singleton, for u optimal
    import itertools

    from toricip.relax import build_relaxation, solve_relaxation

    a, delta, _, _, _ = knapsack_pipeline
    for u in itertools.product(range(3), range(3), range(2)):
        opt = fiber_solve(a, KNAPSACK_COST, a.apply(u))
        single = (
            enumerate_lattice_points(oracle.q_polytope(a, KNAPSACK_COST, u, ()), limit=2)
            == [(0, 0)]
        )
        assert single == (opt == u)
        if opt == u:
            out = solve_relaxation(
                build_relaxation(a, KNAPSACK_COST, delta, face(3), a.apply(u))
            )
            single3 = (
                enumerate_lattice_points(
                    oracle.q_polytope(a, KNAPSACK_COST, u, face(3)), limit=2
                )
                == [(0, 0)]
            )
            assert out.solves_ip == single3


def _face_systems(a, delta, caps_of):
    """Per face of delta, in the search's order: (face, brows, caps), one list per face size."""
    lat = kernel_lattice_basis(a)
    for _, faces in itertools.groupby(delta.faces(), len):
        yield [(tau, [lat.matrix[i] for i in range(a.n) if i not in tau],
                [caps_of[i] for i in range(a.n) if i not in tau]) for tau in faces]


def _assert_face_roots_match_reference(a, cost, delta, caps_of, memo=None):
    """oracle._face_roots equals the reference search on every face of delta.

    ``caps_of`` is the full cap box.  The faces share one memo, and the faces
    of one size one map of swept points, as in the search; ``memo`` passes
    one in.  A face whose capped polytope is unbounded (a cost that vanishes
    on the kernel) must raise in both.  Returns the number of roots found.
    """
    lat = kernel_lattice_basis(a)
    if lat.corank == 0:
        return 0
    crow = (oracle.cost_row(a, cost), 0)
    memo = {} if memo is None else memo
    found = 0
    for faces in _face_systems(a, delta, caps_of):
        swept = {}
        for tau, brows, caps in faces:
            try:
                want = reference_face_roots(brows, caps, crow, lat.corank)
            except Unbounded:
                with pytest.raises(Unbounded):
                    oracle._face_roots(brows, caps, crow, lat.corank, memo, swept)
                continue
            got = oracle._face_roots(brows, caps, crow, lat.corank, memo, swept)
            assert got == want, (tau, caps)
            found += len(want)
    return found


def test_face_roots_match_reference_on_acceptance_seeds(acceptance_pipelines):
    # caps at the algebraic box (the ideal's exponents - 1), which holds every
    # root, one smaller, which loses some, and one larger (the oracle's margin)
    found = {-1: 0, 0: 0, 1: 0}
    for inst in acceptance_pipelines:
        maxexp = initial_ideal(inst["gb"]).max_exponents()
        for extra in found:
            box = [max(m - 1 + extra, 0) for m in maxexp]
            found[extra] += _assert_face_roots_match_reference(
                inst["a"], inst["c"], inst["delta"], box)
    pairs = sum(len(inst["decomp"].pairs) for inst in acceptance_pipelines)
    assert found[-1] < found[0] == found[1] == pairs


# the degenerate costs and the census cases of test_stdpairs, but for the
# first 7 x 12 cost, which takes 5 s here and adds no wider face
NAMED_ROOT_CASES = _BuiltOnUse({
    name: partial(REFERENCE_CASES.__getitem__, name) for name in REFERENCE_CASES
    if name in DEGENERATE or (name.startswith("census") and name != "census7x12-0")})


@pytest.mark.parametrize("name", sorted(NAMED_ROOT_CASES))
def test_face_roots_match_reference_on_named_cases(name):
    a, cost = NAMED_ROOT_CASES[name]
    delta, gb, decomp, _ = decomposition_for(a, cost)
    # the algebraic box, which holds every root
    box = [max(m - 1, 0) for m in initial_ideal(gb).max_exponents()]
    found = _assert_face_roots_match_reference(a, cost, delta, box)
    assert found > 0 or not any(cost)


def _drawn_vectors(draw, length, most):
    return draw(st.lists(st.tuples(*[st.integers(0, 4)] * length), max_size=most))


@st.composite
def search_inputs(draw):
    """Threshold sets, caps and drops of any shape the root search takes."""
    k = draw(st.integers(1, 4))  # with no row left, the threshold sweep is unbounded
    caps = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    thresholds = _drawn_vectors(draw, k, 8)
    # per dropped row: unbounded (None) or its thresholds, of length k - 1
    drops = [None if draw(st.booleans()) else _drawn_vectors(draw, k - 1, 5) for _ in range(k)]
    return thresholds, caps, drops


@settings(max_examples=300, deadline=None)
@given(search_inputs())
@example(([], [2, 1], [None, None]))  # no thresholds, unbounded drops
@example(([(0, 0)], [2, 2], [None, [(1,)]]))  # an all-zero threshold kills every root
@example(([(1, 0)], [0, 0], [[(0,)], [(0,)]]))  # zero caps
@example(([(2,)], [3], [[()]]))  # k = 1: the drop keeps only the cost cut
@example(([(2,)], [3], [[]]))  # k = 1, a bounded drop without thresholds
@example(([(1, 1)], [3, 3], [[(1,)], [(1,)]]))  # the one join (1, 1) is a threshold: no roots
@example(([(2, 2)], [1, 1], [[(2,), (1,)], None]))  # the lifted (0, 2) is above the caps
@example(([(2, 2, 2)], [3, 3, 3], [[(1, 0), (0, 1)], [(1, 0), (0, 1)], None]))  # floors
def test_root_search_matches_reference(inputs):
    thresholds, caps, drops = inputs
    zero_floor = [(0,) * len(caps)]
    assert oracle._undominated(thresholds, caps, zero_floor) == reference_undominated(thresholds, caps)
    assert oracle._roots(thresholds, caps, drops) == reference_roots(thresholds, caps, drops)


def _naive_floors(thresholds, caps, drops):
    """Minimal joins of one lifted threshold per bounded drop, each join in
    the box and dominating no threshold; the zero vector with no bounded drop."""
    lifted = [[t[:k] + (0,) + t[k:] for t in ths] for k, ths in enumerate(drops) if ths is not None]
    if not lifted:
        return [(0,) * len(caps)]
    joins = {tuple(map(max, (0,) * len(caps), *pick)) for pick in itertools.product(*lifted)}
    kept = [j for j in joins if all(x <= c for x, c in zip(j, caps))
            and not any(all(e <= x for e, x in zip(th, j)) for th in thresholds)]
    return sorted(j for j in kept if not any(i != j and all(e <= x for e, x in zip(i, j))
                                             for i in kept))


@settings(max_examples=300, deadline=None)
@given(search_inputs())
@example(([(1, 1)], [3, 3], [[(1,)], [(1,)]]))  # the one join (1, 1) is a threshold
@example(([(2, 2)], [1, 1], [[(2,), (1,)], None]))  # (0, 2) is above the caps
@example(([(2, 2, 2)], [3, 3, 3], [[(1, 0), (0, 1)], [(1, 0), (0, 1)], None]))
def test_floors_are_the_minimal_joins(inputs):
    thresholds, caps, drops = inputs
    assert oracle._floors(thresholds, caps, drops) == _naive_floors(thresholds, caps, drops)


def test_fiber_solve_factors_each_matrix_once(monkeypatch):
    # from cold caches, twenty right-hand sides of one matrix share one factorization
    calls = []
    real = fibers.factor

    def counted(rows):
        calls.append(rows)
        return real(rows)

    for name, module in list(sys.modules.items()):
        if name.startswith("toricip") and getattr(module, "factor", None) is real:
            monkeypatch.setattr(module, "factor", counted)
    kernel_lattice_basis.cache_clear()
    oracle._recession_trivial.cache_clear()
    a = IntMatrix(((1, 1, 1, 1), (0, 1, 2, 3)))
    rhs = [(s, t) for s in range(4) for t in range(5)]
    got = [fiber_solve(a, (1, 0, 0, 1), b, with_fiber=True) for b in rhs]
    assert len(calls) == 1
    fac = real(a.entries)
    for b, (best, fiber) in zip(rhs, got):
        assert fiber == fac.points(b)
        assert best == min(fiber, key=lambda x: (x[0] + x[3], x), default=None)


# corank 1, 2 and 3; EX1's costs include 0 and (2, 3, 4, 5) = 2 (1 1 1 1) + (0 1 2 3)
# in its row space, on which every fiber point ties and the lex-first must win
FIBER_CASES = {
    "corank1": (((1, 1, 1), (0, 1, 2)), [(1, 0, 1), (0, 0, 0), (3, 2, 7)]),
    "knapsack": (((2, 5, 8),), [(10000, 100, 1), (0, 0, 0), (1, 2, 3)]),
    "ex1": (((1, 1, 1, 1), (0, 1, 2, 3)),
            [(1, 0, 0, 1), (0, 0, 0, 0), (2, 3, 4, 5), (-1, 2, 0, 3)]),
    "corank3": (((1, 1, 1, 1, 1), (0, 1, 2, 3, 4)), [(1, 0, 0, 0, 1), (0,) * 5, (1, 2, 3, 4, 5)]),
}


@pytest.mark.parametrize("name", sorted(FIBER_CASES))
def test_fiber_solve_matches_the_lifted_fiber_minimum(name):
    rows, costs = FIBER_CASES[name]
    a = IntMatrix(rows)
    fac = fibers.factor(rows)
    # the image of every x in {0, 1, 2}^n, and b off the semigroup such as (0, .., 0, 1)
    rhs = {a.apply(u) for u in itertools.product(range(3), repeat=a.n)}
    rhs |= {(1,) * a.d, tuple(range(a.d, 2 * a.d)), (0,) * (a.d - 1) + (1,)}
    ties = 0
    for cost in costs:
        for b in sorted(rhs):
            fiber = fac.points(b)
            want = min(fiber, key=lambda x: (sum(c * v for c, v in zip(cost, x)), x), default=None)
            assert fiber_solve(a, cost, b) == want, (cost, b)
            assert fiber_solve(a, cost, b, with_fiber=True) == (want, fiber), (cost, b)
            ties += len(fiber) > 1 and not any(cost)
    assert fiber_solve(a, costs[0], (1,) * (a.d - 1) + (-1,)) is None  # infeasible
    assert ties > 0


def test_fiber_solve_is_the_first_least_cost_point_of_its_fiber_on_tied_costs():
    # costs with ties on every fourth acceptance matrix: 0, the matrix's
    # grading row (every fiber point ties) and the seed's cost mod 2; the
    # optimum is the first least-cost point of the fiber with_fiber returns,
    # which is in lex order
    ties = 0
    for seed in range(0, 100, 4):
        a, cost = make_instance(seed)
        grading = tuple(dot(a.grading, a.column(j)) for j in range(a.n))
        rng = random.Random(seed)
        for c in ((0,) * a.n, grading, tuple(v % 2 for v in cost)):
            for _ in range(8):
                b = a.apply(tuple(rng.randint(0, 3) for _ in range(a.n)))
                best, fiber = fiber_solve(a, c, b, with_fiber=True)
                values = [dot(c, x) for x in fiber]
                least = min(values)
                assert best == fiber[values.index(least)] == fiber_solve(a, c, b), (seed, c, b)
                assert fiber == sorted(fiber)
                ties += values.count(least) > 1
    assert ties > 100


class _CountedElimination(fibers.Elimination):
    """An Elimination that logs its plans and sweeps as (normals, offsets) systems."""

    plans, sweeps = [], []

    def _plan(self):
        self.plans.append(tuple(map(tuple, self.normals)))
        super()._plan()

    def points(self, offsets, limit=None):
        self.sweeps.append((tuple(map(tuple, self.normals)), tuple(offsets)))
        return super().points(offsets, limit)


@pytest.fixture
def counted_eliminations(monkeypatch):
    """Log every plan and sweep, also those made through lattice_points_boxed."""
    monkeypatch.setattr(_CountedElimination, "plans", [])
    monkeypatch.setattr(_CountedElimination, "sweeps", [])
    monkeypatch.setattr(fibers, "Elimination", _CountedElimination)
    monkeypatch.setattr(oracle, "Elimination", _CountedElimination)
    oracle._recession_trivial.cache_clear()
    return _CountedElimination


def test_face_sweep_serves_its_first_bounded_drop(counted_eliminations):
    # census 4 x 7, second cost: a face with a bounded drop takes its points
    # from that drop's sweep, so its own system (one row more) is never swept;
    # each face gets a memo of its own here, so nothing is shared
    a, cost = REFERENCE_CASES["census4x7-1"]
    delta, gb, _, _ = decomposition_for(a, cost)
    box = [max(m - 1, 0) for m in initial_ideal(gb).max_exponents()]
    lat = kernel_lattice_basis(a)
    crow = (oracle.cost_row(a, cost), 0)
    sweeps = []  # per face: the row count of each of its sweeps
    for faces in _face_systems(a, delta, box):
        for _, brows, caps in faces:
            del counted_eliminations.sweeps[:]
            oracle._face_roots(brows, caps, crow, lat.corank, {}, {})
            sweeps.append((brows, [len(normals) for normals, _ in counted_eliminations.sweeps]))
    with_drop = 0
    for brows, counts in sweeps:
        has_drop = any(
            fibers.Elimination(brows[:k] + brows[k + 1 :] + [crow[0]], lat.corank).bounded
            for k in range(len(brows)))
        with_drop += has_drop
        own = len(brows) + 1  # the face's B-rows and the cost cut
        assert counts.count(own) == (not has_drop)
        assert len(counts) >= 1 and set(counts) <= {own, own - 1}
    # 32 of the 36 faces have a bounded drop; sweeping each face's own system
    # as well took 80 calls
    assert (len(sweeps), with_drop) == (36, 32)
    assert sum(len(counts) for _, counts in sweeps) == 48


# census 4 x 7 and acceptance seed 5 swept 48 and 27 times, 23 and 12 systems,
# before one search shared its systems across faces
ONE_SEARCH_CASES = _BuiltOnUse({"census4x7-1": partial(REFERENCE_CASES.__getitem__, "census4x7-1"),
                                "seed5": partial(make_instance, 5)})


@pytest.mark.parametrize("name", sorted(ONE_SEARCH_CASES))
def test_one_search_plans_and_sweeps_each_system_once(counted_eliminations, name):
    # a face's drops are the systems of the faces one larger, and the faces of
    # one size share drops
    a, cost = ONE_SEARCH_CASES[name]
    delta, gb, _, _ = decomposition_for(a, cost)
    box = [max(m - 1, 0) for m in initial_ideal(gb).max_exponents()]
    del counted_eliminations.plans[:], counted_eliminations.sweeps[:]
    brute_force_standard_pairs(a, cost, delta, root_box=box)
    plans, sweeps = counted_eliminations.plans, counted_eliminations.sweeps
    assert len(sweeps) == len(set(sweeps)) > 0
    assert len(plans) == len(set(plans))


def test_one_memo_serves_every_box():
    # the memo is keyed by the caps as well as the B-rows, so one memo shared
    # by the searches at three growing boxes gives each box its own roots, and
    # every entry is the reference's thresholds of its system
    a, cost = REFERENCE_CASES["census4x7-1"]
    delta, gb, decomp, _ = decomposition_for(a, cost)
    crow, ndim = (oracle.cost_row(a, cost), 0), kernel_lattice_basis(a).corank
    memo, found = {}, {}
    for extra in (-1, 0, 1):
        box = [max(m - 1 + extra, 0) for m in initial_ideal(gb).max_exponents()]
        found[extra] = _assert_face_roots_match_reference(a, cost, delta, box, memo)
    assert found[-1] < found[0] == found[1] == len(decomp.pairs)
    for rows, thresholds in memo.items():
        brows, caps = [s for s, _ in rows], [c for _, c in rows]
        bounded = fibers.Elimination(brows + [crow[0]], ndim).bounded
        assert thresholds == (reference_thresholds(brows, caps, crow, ndim) if bounded else None)


def test_is_standard_polytope_plans_each_system_once(counted_eliminations, knapsack_pipeline):
    # one plan per dropped row answers both whether it is bounded and its points
    a, delta, _, _, _ = knapsack_pipeline
    assert is_standard_polytope(a, KNAPSACK_COST, (1, 0, 0), (), delta)
    plans = counted_eliminations.plans
    assert len(plans) == len(set(plans)) == 4  # the singleton test and the three B-row drops
