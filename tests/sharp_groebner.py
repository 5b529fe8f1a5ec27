"""S-pair counts of the toric Groebner completions on the sharp family.

    python tests/sharp_groebner.py                 # m = 4, then m = 5 for 400 CPU s
    python tests/sharp_groebner.py --seconds 60    # a shorter m = 5 budget
    python tests/sharp_groebner.py --seconds 0     # m = 4 only
    python tests/sharp_groebner.py --reference     # also hold m = 4 equal to the reference

``toric_groebner`` runs one completion per variable in S (the saturation
passes), S the variables its start binomials cannot reach, and a final one
under the cost order.  This prints S, 1-based, and the passes it skips.  For
each completion it prints the S-pairs popped from the queue, the pairs
skipped by each criterion, the popped pairs that reduced to zero, the basis
size and the CPU time.  The counts come from wrapping the completion's
helpers in ``toricip.groebner``: every popped pair is one ``_reduce_full``
call, ``_chain`` drops queued pairs (criterion B), ``_minimal_lcms`` drops
new pairs whose lcm another divides (criteria M and F), and ``_new_pairs``
then drops the coprime ones.  Every finished basis is checked without a
reference: each element lies in the kernel, A(head - tail) = 0, and the
basis is reduced.  m = 4 must give 72 elements, not generic; with
``--reference`` it must also equal ``tests/reference_groebner.py``'s basis
from the same LLL start, which saturates by every variable (about 30 CPU s:
that completion has no criterion but coprime heads).  The m = 5 run starts
no completion once its CPU budget is spent, a wall-clock alarm at twice the
budget interrupts a running one, and it reports how many completions
finished.  Not collected by pytest.
"""

import argparse
import signal
import sys
import time
from collections import Counter
from operator import le
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from reference_groebner import lll_toric_groebner  # noqa: E402

from toricip import groebner  # noqa: E402
from toricip.groebner import CostOrder  # noqa: E402
from toricip.hilbert import sharp_family  # noqa: E402

COUNTS = Counter()


class OutOfTime(Exception):
    pass


def _out_of_time(signum, frame):
    raise OutOfTime


def _counted(name, count):
    real = getattr(groebner, name)

    def wrapper(*args):
        out = real(*args)
        count(args, out)
        return out

    setattr(groebner, name, wrapper)


def _count_reduction(args, out):
    COUNTS["popped"] += 1
    COUNTS["zero"] += out is None


def _count_chain(args, out):
    COUNTS["chain"] += len(args[0]) - len(out)


def _count_lcm(args, out):
    COUNTS["lcm"] += len(args[0]) - len(out)
    COUNTS["kept_lcm"] += len(out)


def _count_coprime(args, out):
    COUNTS["coprime"] += COUNTS.pop("kept_lcm") - len(out)


def _check(m, gb):
    """Assert that every element lies in the kernel and that the basis is reduced."""
    start = time.process_time()
    a = gb.matrix
    for b in gb.elements:
        assert a.apply(b.vector) == (0,) * a.d, b
        for other in gb.elements:
            assert other is b or not all(map(le, other.head, b.head)), (other, b)
            assert not all(map(le, other.head, b.tail)), (other, b)
    print(f"m={m}: {len(gb.elements):,} elements, each in the kernel; the basis is reduced"
          f" ({time.process_time() - start:.1f} CPU s)", flush=True)


def run(m, budget, deadline):
    """toric_groebner on sharp m, one line per completion; the basis, or None when out of time."""
    a, cost = sharp_family(m)
    passes = []
    done = []
    start = time.process_time()
    real, choose = groebner._completion, groebner._saturating_variables

    def saturating_variables(gens, n):
        passes[:] = choose(gens, n)
        print(f"m={m} saturates by {len(passes)} of {n} variables, skipping {n - len(passes)}"
              f" passes: {', '.join(str(j + 1) for j in passes)}", flush=True)
        return passes

    def completion(gens, order):
        if done and time.process_time() - start > budget:
            raise OutOfTime
        COUNTS.clear()
        t = time.process_time()
        out = real(gens, order)
        done.append(out)
        name = "final" if isinstance(order, CostOrder) else f"pass {len(done)}"
        print(f"m={m} {name:8} popped {COUNTS['popped']:7,}  skipped: chain {COUNTS['chain']:7,}"
              f"  lcm {COUNTS['lcm']:7,}  coprime {COUNTS['coprime']:7,}"
              f"  zero {COUNTS['zero']:7,}  basis {len(out):4}"
              f"  {time.process_time() - t:7.2f} CPU s", flush=True)
        return out

    groebner._completion, groebner._saturating_variables = completion, saturating_variables
    signal.signal(signal.SIGALRM, _out_of_time)
    if deadline:
        signal.alarm(deadline)
    try:
        gb = groebner.toric_groebner.__wrapped__(a, CostOrder.from_cost(cost))
    except OutOfTime:
        gb = None
    finally:
        signal.alarm(0)
        groebner._completion, groebner._saturating_variables = real, choose
    total = time.process_time() - start
    print(f"m={m}: {len(done)} of {len(passes) + 1} completions in {total:.1f} CPU s", flush=True)
    if gb is not None:
        _check(m, gb)
    return gb


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=400, help="CPU budget of the m = 5 run")
    parser.add_argument("--reference", action="store_true",
                        help="check m = 4 against the reference")
    args = parser.parse_args()
    _counted("_reduce_full", _count_reduction)
    _counted("_chain", _count_chain)
    _counted("_minimal_lcms", _count_lcm)
    _counted("_new_pairs", _count_coprime)
    gb = run(4, float("inf"), 0)
    assert (len(gb.elements), gb.generic) == (72, False)
    if args.reference:
        start = time.process_time()
        ref = lll_toric_groebner(gb.matrix, gb.order)
        assert (gb.elements, gb.generic) == (ref.elements, ref.generic)
        print(f"m=4 equals the reference ({time.process_time() - start:.1f} CPU s)", flush=True)
    if args.seconds > 0:
        run(5, args.seconds, 2 * args.seconds)


if __name__ == "__main__":
    main()
