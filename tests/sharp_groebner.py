"""S-pair counts of the toric Groebner completions on the sharp family.

    python tests/sharp_groebner.py                 # m = 4, then m = 5 for 400 CPU s
    python tests/sharp_groebner.py --seconds 60    # a shorter m = 5 budget
    python tests/sharp_groebner.py --seconds 0     # m = 4 only
    python tests/sharp_groebner.py --reference     # also hold m = 4 equal to the reference

``toric_groebner`` runs one completion per variable in S (the saturation
passes), S the variables its start binomials cannot reach, and a final one
under the cost order; after each pass it plans the rest of S again on that
pass's basis, from the pass's variable, and takes a strictly shorter plan.
This prints S, 1-based, the passes it skips, and each re-plan with whether
it was taken.  For each completion it prints the S-pairs popped from the
queue, the pairs skipped by each criterion, the popped pairs that reduced
to zero, the basis size and the CPU time.  The counts come from wrapping the completion's
helpers in ``toricip.groebner``: every popped pair is one ``_reduce_full``
call, ``_chain`` drops queued pairs (criterion B), ``_minimal_lcms`` drops
new pairs whose lcm another divides (criteria M and F), and ``_new_pairs``
then drops the coprime ones.  Every finished basis is checked without a
reference: each element lies in the kernel, A(head - tail) = 0, its head
is the larger monomial under the cost order refined by lex, the basis is
reduced, and it meets Buchberger's criterion: every S-pair of two elements
whose heads share a variable reduces to zero, that is, its two monomials
have one normal form.  Pairs with coprime heads reduce to zero by
Buchberger's first criterion.  So the basis is a reduced Groebner basis of
an ideal inside the toric ideal; that this ideal is the whole toric ideal
is what the saturation lemma and ``--reference`` show.  m = 4 must give 72
elements, not generic, after 8 passes, and m = 5 1,081; with
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
from operator import add, le, mul, sub
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
    """Assert that every element lies in the kernel and is oriented, and that the basis is reduced."""
    start = time.process_time()
    a = gb.matrix
    cost = gb.order.cost

    def key(u):
        return sum(map(mul, cost, u)), u

    for b in gb.elements:
        assert a.apply(b.vector) == (0,) * a.d, b
        assert key(b.head) > key(b.tail), b
        for other in gb.elements:
            assert other is b or not all(map(le, other.head, b.head)), (other, b)
            assert not all(map(le, other.head, b.tail)), (other, b)
    print(f"m={m}: {len(gb.elements):,} elements, each in the kernel and oriented;"
          f" the basis is reduced ({time.process_time() - start:.1f} CPU s)", flush=True)


def _buchberger(m, gb):
    """Assert that every S-pair of two elements whose heads share a variable reduces to zero.

    The S-pair of x^h - x^t and x^h' - x^t' is x^(l-h+t) - x^(l-h'+t'), l the
    lcm of the heads; it reduces to zero when its two monomials have the same
    normal form.  A monomial is reduced by the first element whose head
    divides it, found as the lowest bit of the AND, over the variables, of
    the elements whose head's exponent there is at most the monomial's.
    """
    start = time.process_time()
    heads = [b.head for b in gb.elements]
    steps = [tuple(map(sub, b.tail, b.head)) for b in gb.elements]
    tops = [max(col) for col in zip(*heads)]
    below = [[sum(1 << i for i, h in enumerate(heads) if h[j] <= e) for e in range(top)]
             for j, top in enumerate(tops)]
    every = (1 << len(heads)) - 1

    def normal_form(u):
        while True:
            hits = every
            for e, top, masks in zip(u, tops, below):
                if e < top:
                    hits &= masks[e]
                    if not hits:
                        return u
            u = tuple(map(add, u, steps[(hits & -hits).bit_length() - 1]))

    pairs = 0
    for i, (h, s) in enumerate(zip(heads, steps)):
        for h2, s2 in zip(heads[:i], steps[:i]):
            if any(map(min, h, h2)):
                lcm = tuple(map(max, h, h2))
                left = normal_form(tuple(map(add, lcm, s)))
                assert left == normal_form(tuple(map(add, lcm, s2))), (h, h2)
                pairs += 1
    print(f"m={m}: Buchberger's criterion holds: {pairs:,} S-pairs with heads sharing a variable"
          f" reduce to zero ({time.process_time() - start:.1f} CPU s)", flush=True)


def run(m, budget, deadline):
    """toric_groebner on sharp m, one line per completion; the basis, or None when out of time."""
    a, cost = sharp_family(m)
    passes = []
    done = []
    start = time.process_time()
    real, choose = groebner._completion, groebner._saturating_variables

    def saturating_variables(gens, n, seed=()):
        chosen = choose(gens, n, seed)
        names = ", ".join(str(j + 1) for j in chosen) or "none"
        if not seed:
            passes[:] = chosen
            print(f"m={m} saturates by {len(passes)} of {n} variables, skipping {n - len(passes)}"
                  f" passes: {names}", flush=True)
        else:  # toric_groebner takes a re-plan only when it is strictly shorter
            rest = passes[len(done):]
            taken = len(chosen) < len(rest)
            if taken:
                passes[len(done):] = chosen
            print(f"m={m} re-plans after pass {len(done)} (variable {seed[0] + 1}):"
                  f" {len(chosen)} more passes, {names};"
                  f" {'taken' if taken else 'kept'} the {len(rest)} planned", flush=True)
        return list(chosen)

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
        _buchberger(m, gb)
    return gb, len(passes)


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
    gb, passes = run(4, float("inf"), 0)
    assert (len(gb.elements), gb.generic, passes) == (72, False, 8)
    if args.reference:
        start = time.process_time()
        ref = lll_toric_groebner(gb.matrix, gb.order)
        assert (gb.elements, gb.generic) == (ref.elements, ref.generic)
        print(f"m=4 equals the reference ({time.process_time() - start:.1f} CPU s)", flush=True)
    if args.seconds > 0:
        gb, _ = run(5, args.seconds, 2 * args.seconds)
        assert gb is None or len(gb.elements) == 1081


if __name__ == "__main__":
    main()
