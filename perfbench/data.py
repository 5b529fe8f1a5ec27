"""Benchmark inputs: the acceptance instance generator, fixtures and known answers.

Everything here is plain data or a pure function of a seed.  The generator is
the benchmark's own copy of the acceptance-suite generator; its test asserts
that both return the same instance for every sampled seed.
"""

import random

from toricip.core import IntMatrix
from toricip.errors import DomainError
from toricip.groebner import is_generic
from toricip.triangulation import regular_subdivision

KNAPSACK = ((2, 5, 8),)
KNAPSACK_COST = (10000, 100, 1)

EX1 = ((1, 1, 1, 1), (0, 1, 2, 3))
EX1_COST = (1, 0, 0, 1)

LONG_CHAIN = ((5, 0, 0, 2, 1, 0), (0, 5, 0, 1, 4, 2), (0, 0, 5, 2, 0, 3))
LONG_CHAIN_COST = (21, 6, 1, 0, 0, 0)

GFAMILY = ((1, 0, 1, 1, 1, 1), (0, 1, 1, 1, 2, 2), (0, 0, 1, 2, 3, 4))

NONNORMAL = ((1, 1, 1, 1), (0, 1, 3, 4))

CENSUS = {
    # 7 x 12, every generic cost supports a Gomory family
    "census7x12": ((1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0),
                   (0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1),
                   (0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1),
                   (0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0),
                   (0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0),
                   (0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1),
                   (0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1)),
    # 4 x 8 simplicial-normal matrix with 77 regular triangulations
    "census4x8": ((1, 0, 0, 1, 1, 1, 1, 1),
                  (0, 1, 0, 1, 1, 2, 2, 2),
                  (0, 0, 1, 1, 2, 2, 3, 3),
                  (0, 0, 0, 1, 2, 3, 4, 5)),
    # 4 x 7 normal matrix with 19 regular triangulations
    "census4x7": ((1, 1, 1, 1, 1, 1, 1),
                  (1, 0, 1, 1, 1, 1, 0),
                  (0, 1, 2, 2, 1, 1, 0),
                  (0, 0, 4, 3, 2, 1, 0)),
}

# The published multiplicity table of the sharp family at m = 3 (1-based faces).
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

# Acceptance seeds of the random workloads: 0-99 without the known-slow ones,
# each of which alone takes 7-50 s in one workload (see README.md).  The
# benchmark seed only shuffles their order: drawing fresh right-hand sides per
# seed moved ops_per_s by +-12 % between seeds, far more than a change to the
# library should have to beat.
KNOWN_SLOW_SEEDS = (37, 40, 74, 95, 98)
POOL = tuple(s for s in range(100) if s not in KNOWN_SLOW_SEEDS)

RHS_PER_INSTANCE = 20

# Census costs: the first generic costs (each with a triangulation) drawn by
# the census check of the acceptance suite, random.Random(4242) per matrix,
# extended past its three; the tests redraw them.  They are stored because
# drawing them costs 4 s of set-up, and fixed because costs drawn from the
# benchmark seed moved op_p50_s of scale by 37 % between seeds.  The census
# 4 x 7 normality test uses the triangulation of the first 4 x 7 cost.
CENSUS_COST_SEED = 4242
CENSUS_COSTS = {
    "census7x12": ((55, 60, 26, 8, 1, 39, 24, 24, 20, 17, 11, 32),
                   (31, 1, 52, 30, 10, 9, 36, 48, 43, 30, 7, 1),
                   (8, 32, 9, 11, 21, 7, 10, 45, 15, 55, 44, 36),
                   (42, 40, 14, 58, 28, 3, 58, 17, 21, 0, 20, 57),
                   (10, 33, 21, 43, 22, 38, 25, 25, 20, 47, 19, 50)),
    "census4x8": ((55, 60, 26, 8, 1, 39, 24, 24), (20, 17, 11, 32, 31, 1, 52, 30),
                  (10, 9, 36, 48, 43, 30, 7, 1), (8, 32, 9, 11, 21, 7, 10, 45),
                  (15, 55, 44, 36, 42, 40, 14, 58), (28, 3, 58, 17, 21, 0, 20, 57),
                  (10, 33, 21, 43, 22, 38, 25, 25), (31, 17, 28, 5, 51, 56, 46, 54),
                  (30, 16, 10, 39, 10, 58, 18, 30), (17, 58, 5, 56, 6, 46, 24, 52)),
    "census4x7": ((55, 60, 26, 8, 1, 39, 24), (24, 20, 17, 11, 32, 31, 1),
                  (52, 30, 10, 9, 36, 48, 43), (30, 7, 1, 8, 32, 9, 11),
                  (21, 7, 10, 45, 15, 55, 44), (36, 42, 40, 14, 58, 28, 3),
                  (58, 17, 21, 0, 20, 57, 10), (20, 47, 19, 50, 10, 22, 38),
                  (35, 31, 17, 28, 5, 51, 56), (46, 54, 30, 16, 10, 39, 10)),
}


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


def acceptance_rhs(seed, a, faces):
    """The twenty (b, face) pairs the acceptance suite draws for an instance.

    As in criterion 8: b = A u for u in {0..3}^n, each followed by a random
    face of the triangulation.
    """
    rng = random.Random(10_000 + seed)
    out = []
    for _ in range(RHS_PER_INSTANCE):
        u = tuple(rng.randint(0, 3) for _ in range(a.n))
        out.append((a.apply(u), faces[rng.randrange(len(faces))]))
    return out
