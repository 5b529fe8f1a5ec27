"""Replay the elimination calls of three benchmark workloads through another library copy.

    PYTHONPATH=src python tests/elimination_replay.py record calls.pickle
    PYTHONPATH=OTHER/src python tests/elimination_replay.py replay calls.pickle
    PYTHONPATH=src python tests/elimination_replay.py within calls.pickle other.pickle

``record`` runs the set-up and one pass of the ``pipeline``, ``oracle`` and
``scale`` workloads of ``perfbench`` at seed 1 and stores the input and the
output of every ``fibers.lattice_points_boxed``, ``Elimination.points`` (every
sweep, also one made through a plan or a factorization), ``Factorization.points``,
``oracle.fiber_solve`` (which sweeps the fiber's elimination itself) and
``relax.solve_relaxation`` call.  ``replay`` runs each stored input
through the ``toricip`` on the path (for instance a checkout of an earlier
commit), asserts that every output is identical and prints the counts per
workload and function.  ``within`` asserts that every sweep of the first
recording, input and output, is also one of the second's in the same
workload, and prints both counts of sweeps and of distinct ones per workload.
Not collected by pytest: recording the three workloads takes a few minutes.
"""

import collections
import pickle
import sys
from pathlib import Path

from toricip import fibers, oracle, relax
from toricip.core import IntMatrix
from toricip.errors import DomainError, ParseError
from toricip.triangulation import regular_subdivision

WORKLOADS = ("pipeline", "oracle", "scale")


def _outcome(run):
    """The value of run(), or the name of the library error it raises."""
    try:
        return run()
    except (DomainError, ParseError) as exc:
        return type(exc).__name__


def _rows(rows):
    return tuple(map(tuple, rows))


def _relaxation_answer(out):
    return (out.z, out.x, out.solves_ip, out.value)


def record(path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    calls, current = [], [None]

    def recorder(name, fn, key, answer=lambda out: out):
        def wrapped(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except (DomainError, ParseError) as exc:
                calls.append((current[0], name, key(*args, **kwargs), type(exc).__name__))
                raise
            calls.append((current[0], name, key(*args, **kwargs), answer(out)))
            return out
        return wrapped

    boxed = recorder("lattice_points_boxed", fibers.lattice_points_boxed,
                     lambda rows, dim, limit=None: (list(rows), dim, limit))
    fibers.lattice_points_boxed = oracle.lattice_points_boxed = boxed
    fibers.Elimination.points = recorder(
        "Elimination.points", fibers.Elimination.points,
        lambda plan, offsets, limit=None: (_rows(plan.normals), plan.dim, tuple(offsets), limit))
    fibers.Factorization.points = recorder(
        "Factorization.points", fibers.Factorization.points,
        lambda fac, b, limit=None: (fac.rows, tuple(b), limit))
    oracle.fiber_solve = workloads.fiber_solve = recorder(
        "fiber_solve", oracle.fiber_solve,
        lambda a, cost, b, with_fiber=False: (a.entries, tuple(cost), tuple(b), with_fiber))
    relax.solve_relaxation = workloads.solve_relaxation = recorder(
        "solve_relaxation", relax.solve_relaxation,
        lambda r: (r.matrix.entries, r.cost, r.face, r.rhs), _relaxation_answer)

    class Counters:
        counters = collections.Counter()

    for name in WORKLOADS:
        current[0] = name
        state = getattr(workloads, name + "_setup")(1)
        for _, run, check in getattr(workloads, name + "_ops")(state):
            workloads.clear_caches(Counters)
            problem = check(run())
            if problem:
                raise AssertionError(f"{name}: {problem}")
    with open(path, "wb") as fh:
        pickle.dump(calls, fh)
    print(f"recorded {len(calls)} calls")


def replay(path):
    with open(path, "rb") as fh:
        calls = pickle.load(fh)
    factored = {}
    counts = collections.Counter()
    for workload, func, args, expected in calls:
        if func == "lattice_points_boxed":
            got = _outcome(lambda: fibers.lattice_points_boxed(*args))
        elif func == "Elimination.points":
            normals, dim, offsets, limit = args
            got = _outcome(lambda: fibers.Elimination(normals, dim).points(offsets, limit))
        elif func == "Factorization.points":
            rows, b, limit = args
            if rows not in factored:
                factored[rows] = fibers.factor(rows)
            got = factored[rows].points(b, limit)
        elif func == "fiber_solve":
            entries, cost, b, with_fiber = args
            got = _outcome(lambda: oracle.fiber_solve(IntMatrix(entries), cost, b, with_fiber))
        else:
            entries, cost, face, rhs = args
            a = IntMatrix(entries)

            def solve():
                delta = regular_subdivision(a, cost)
                r = relax.build_relaxation(a, cost, delta, face, rhs)
                return _relaxation_answer(relax.solve_relaxation(r))

            got = _outcome(solve)
        if got != expected:
            raise AssertionError(f"{workload} {func}{args}: {got!r} != {expected!r}")
        counts[workload, func] += 1
    for (workload, func), count in sorted(counts.items()):
        print(f"{workload}\t{func}\t{count}")
    print(f"all {sum(counts.values())} calls identical")


def _sweeps(path):
    """Per workload, the (input, output) of every Elimination.points call, in order."""
    with open(path, "rb") as fh:
        calls = pickle.load(fh)
    out = collections.defaultdict(list)
    for workload, func, args, got in calls:
        if func == "Elimination.points":
            out[workload].append((args, got if isinstance(got, str) else _rows(got)))
    return out


def within(path, other):
    mine, theirs = _sweeps(path), _sweeps(other)
    for workload in sorted(set(mine) | set(theirs)):
        known = set(theirs[workload])
        new = [s for s in mine[workload] if s not in known]
        if new:
            raise AssertionError(f"{workload}: {len(new)} sweeps not in {other}, first {new[0]}")
        print(f"{workload}\tsweeps {len(mine[workload])} ({len(set(mine[workload]))} distinct)"
              f"\tagainst {len(theirs[workload])} ({len(known)} distinct)")
    print(f"every sweep of {path} is one of {other}'s")


if __name__ == "__main__":
    if sys.argv[1] == "within":
        within(sys.argv[2], sys.argv[3])
    else:
        {"record": record, "replay": replay}[sys.argv[1]](sys.argv[2])
