"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import data  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from conftest import make_instance as acceptance_instance  # noqa: E402

# every seventh acceptance seed plus the two slowest generator calls after 37,
# whose generator alone takes about 12 s
SAMPLE = list(range(0, 100, 7)) + [34, 74]


def test_generator_matches_acceptance_suite():
    for seed in SAMPLE:
        assert data.make_instance(seed) == acceptance_instance(seed), seed


def test_census_costs_are_the_acceptance_draws():
    import random

    from toricip.core import IntMatrix
    from toricip.groebner import is_generic
    from toricip.triangulation import regular_subdivision

    for name, costs in data.CENSUS_COSTS.items():
        a = IntMatrix(data.CENSUS[name])
        rng = random.Random(data.CENSUS_COST_SEED)
        drawn = []
        while len(drawn) < len(costs):
            c = tuple(rng.randint(0, 60) for _ in range(a.n))
            if is_generic(a, c)[0] and regular_subdivision(a, c).is_triangulation:
                drawn.append(c)
        assert tuple(drawn) == costs, name


def test_pool_excludes_known_slow_seeds():
    assert not set(data.POOL) & set(data.KNOWN_SLOW_SEEDS)
    assert len(data.POOL) == 100 - len(data.KNOWN_SLOW_SEEDS)


def test_tail_has_ten_samples_beyond():
    assert run.tail([0.1] * 10) is None
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values) == (90.0, 90)
    assert run.tail(values[:11]) == (1.0, 9)


def test_self_times_add_up_to_roots():
    t = tracer_mod.Tracer()
    t.spans = [
        ["bench.op", 0.0, 10.0, -1, "a"],
        ["groebner.toric", 1.0, 5.0, 0, "a"],
        ["core.kernel", 2.0, 3.0, 1, "a"],
        ["relax.solve", 6.0, 9.0, 0, "a"],
        ["bench.op", 10.0, 12.0, -1, "b"],
    ]
    self_s, total_s, calls, roots = t.self_times()
    assert self_s == {"bench.op": 5.0, "groebner.toric": 3.0, "core.kernel": 1.0,
                      "relax.solve": 3.0}
    assert total_s["groebner.toric"] == 4.0
    assert calls["bench.op"] == 2 and roots == 12.0
    assert sum(self_s.values()) == roots


def test_install_sees_calls_between_modules():
    t = tracer_mod.Tracer()
    tracer_mod.install(t, [workloads])
    state = workloads.pipeline_setup(0)[:1]
    label, op, check = workloads.pipeline_ops(state)[0]
    idx = t.begin("bench.op")
    result = op()
    t.end(idx)
    assert check(result) is None
    self_s, total_s, calls, roots = t.self_times()
    for name in ("groebner.toric", "core.kernel", "triangulation.subdivision",
                 "stdpairs.decomposition", "relax.solve", "groebner.solve_ip"):
        assert calls[name] > 0, name
    assert abs(sum(self_s.values()) - roots) < 1e-9
    assert t.counters["stdpairs.subsets"] == 2 ** state[0]["a"].n
