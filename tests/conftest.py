import random
import sys
import time
from collections.abc import Mapping

import pytest

from toricip import linprog
from toricip.core import IntMatrix
from toricip.errors import DomainError
from toricip.groebner import CostOrder, toric_groebner, is_generic
from toricip.hilbert import sharp_family
from toricip.stdpairs import decomposition_for, initial_ideal, standard_pair_decomposition
from toricip.triangulation import regular_subdivision

KNAPSACK = ((2, 5, 8),)
KNAPSACK_COST = (10000, 100, 1)

EX1 = ((1, 1, 1, 1), (0, 1, 2, 3))
EX1_COST = (1, 0, 0, 1)
EX2_COST = (0, 1, 0, 1)
EX3 = ((1, 3, 2, 1), (0, 1, 2, 3))

LONG_CHAIN = ((5, 0, 0, 2, 1, 0), (0, 5, 0, 1, 4, 2), (0, 0, 5, 2, 0, 3))
LONG_CHAIN_COST = (21, 6, 1, 0, 0, 0)

GFAMILY = ((1, 0, 1, 1, 1, 1), (0, 1, 1, 1, 2, 2), (0, 0, 1, 2, 3, 4))
GFAMILY_COST = (0, 0, 1, 1, 0, 3)

NONNORMAL = ((1, 1, 1, 1), (0, 1, 3, 4))

CENSUS_MATRICES = [
    # 7 x 12, every generic cost supports a Gomory family
    ((1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0),
     (0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1),
     (0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1),
     (0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0),
     (0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0),
     (0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1),
     (0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1)),
    # 4 x 8 simplicial-normal matrix with 77 regular triangulations
    ((1, 0, 0, 1, 1, 1, 1, 1),
     (0, 1, 0, 1, 1, 2, 2, 2),
     (0, 0, 1, 1, 2, 2, 3, 3),
     (0, 0, 0, 1, 2, 3, 4, 5)),
    # 4 x 7 normal matrix with 19 regular triangulations
    ((1, 1, 1, 1, 1, 1, 1),
     (1, 0, 1, 1, 1, 1, 0),
     (0, 1, 2, 2, 1, 1, 0),
     (0, 0, 4, 3, 2, 1, 0)),
]
# the first two generic costs the census check draws for each census matrix
CENSUS_COSTS = [
    ((55, 60, 26, 8, 1, 39, 24, 24, 20, 17, 11, 32), (31, 1, 52, 30, 10, 9, 36, 48, 43, 30, 7, 1)),
    ((55, 60, 26, 8, 1, 39, 24, 24), (20, 17, 11, 32, 31, 1, 52, 30)),
    ((55, 60, 26, 8, 1, 39, 24), (24, 20, 17, 11, 32, 31, 1)),
]


class _BuiltOnUse(Mapping):
    """name -> case, such as (IntMatrix, cost), each built on first lookup, not at import.

    A library change that breaks every IntMatrix then fails the tests that
    use a case instead of stopping the collection of every test module.
    """

    def __init__(self, makers):
        self._makers, self._built = makers, {}

    def __getitem__(self, name):
        if name not in self._built:
            self._built[name] = self._makers[name]()
        return self._built[name]

    def __iter__(self):
        return iter(self._makers)

    def __contains__(self, name):  # Mapping's own would build the case
        return name in self._makers

    def __len__(self):
        return len(self._makers)


# named degenerate costs: ties in the Groebner basis, or cells that are not simplices
DEGENERATE = _BuiltOnUse({
    "ex1-zero": lambda: (IntMatrix(EX1), (0, 0, 0, 0)),
    "ex1-ex2": lambda: (IntMatrix(EX1), EX2_COST),
    "ex3-zero": lambda: (IntMatrix(EX3), (0, 0, 0, 0)),
    "knapsack-zero": lambda: (IntMatrix(KNAPSACK), (0, 0, 0)),
    "nonnormal-zero": lambda: (IntMatrix(NONNORMAL), (0, 0, 0, 0)),
    "gfamily-zero": lambda: (IntMatrix(GFAMILY), (0,) * 6),
    "long-chain-zero": lambda: (IntMatrix(LONG_CHAIN), (0,) * 6),
    "sharp3": lambda: sharp_family(3),
})


def counted_lps(monkeypatch, names=("solve_lp", "nonneg_feasible", "gordan_ray")):
    """Count every call the library makes to the ``linprog`` functions ``names``, at every binding."""
    calls = []
    for name in names:
        real = getattr(linprog, name)

        def counted(*args, real=real):
            calls.append(real)
            return real(*args)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("toricip") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return calls


def face(*idx):
    """1-based indices to the internal 0-based sorted face."""
    return tuple(sorted(i - 1 for i in idx))


def faces_1based(faces):
    return sorted(tuple(i + 1 for i in f) for f in faces)


def make_instance(seed, max_entry=4, cost_range=40):
    """A random valid (matrix, generic cost) pair, deterministic per seed."""
    rng = random.Random(seed)
    d = 1 + rng.randrange(3)
    n = d + 1 + rng.randrange(min(6, d + 3) - d)
    while True:
        rows = tuple(tuple(rng.randint(0, max_entry) for _ in range(n)) for _ in range(d))
        try:
            a = IntMatrix(rows)
        except DomainError:
            continue
        for _ in range(60):
            c = tuple(rng.randint(0, cost_range) for _ in range(n))
            generic, _ = is_generic(a, c)
            if generic and regular_subdivision(a, c).is_triangulation:
                return a, c


def zero_heavy_instance(rng):
    """A small matrix with a small, zero-heavy cost, or None when the matrix is invalid."""
    d = rng.randint(1, 2)
    n = d + rng.randint(1, 3)
    rows = tuple(tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(d))
    try:
        a = IntMatrix(rows)
    except DomainError:
        return None
    return a, tuple(rng.choice((0, 0, 0, 1, 2, -1)) for _ in range(n))


@pytest.fixture(scope="session")
def acceptance_pipelines():
    """The 100 acceptance instances, their pipelines and criterion 8's twenty (b, face) each."""
    out = []
    for seed in range(100):
        a, c = make_instance(seed)
        delta, gb, decomp, _ = decomposition_for(a, c)
        rng = random.Random(10_000 + seed)
        faces = delta.faces()
        rhs = []
        taus = []
        for _ in range(20):
            rhs.append(a.apply(tuple(rng.randint(0, 3) for _ in range(a.n))))
            taus.append(faces[rng.randrange(len(faces))])  # criterion 8's face for that b
        out.append({"seed": seed, "a": a, "c": c, "delta": delta, "gb": gb,
                    "decomp": decomp, "rhs": rhs, "taus": taus})
    return out


@pytest.fixture(scope="session")
def sharp4_pipeline():
    """Sharp m=4's ``decomposition_for``, built once, and the CPU seconds the build took.

    Returns (a, c, delta, gb, decomp, refined, seconds).
    """
    start = time.process_time()
    a, c = sharp_family(4)
    delta, gb, decomp, refined = decomposition_for(a, c)
    return a, c, delta, gb, decomp, refined, time.process_time() - start


@pytest.fixture(scope="session")
def knapsack_pipeline():
    a = IntMatrix(KNAPSACK)
    delta = regular_subdivision(a, KNAPSACK_COST)
    gb = toric_groebner(a, CostOrder.from_cost(KNAPSACK_COST))
    ideal = initial_ideal(gb)
    decomp = standard_pair_decomposition(ideal, delta)
    return a, delta, gb, ideal, decomp


@pytest.fixture(scope="session")
def long_chain_pipeline():
    a = IntMatrix(LONG_CHAIN)
    delta = regular_subdivision(a, LONG_CHAIN_COST)
    gb = toric_groebner(a, CostOrder.from_cost(LONG_CHAIN_COST))
    ideal = initial_ideal(gb)
    decomp = standard_pair_decomposition(ideal, delta)
    return a, delta, gb, ideal, decomp


@pytest.fixture(scope="session")
def gfamily_pipeline():
    a = IntMatrix(GFAMILY)
    delta = regular_subdivision(a, GFAMILY_COST)
    gb = toric_groebner(a, CostOrder.from_cost(GFAMILY_COST))
    ideal = initial_ideal(gb)
    decomp = standard_pair_decomposition(ideal, delta)
    return a, delta, gb, ideal, decomp
