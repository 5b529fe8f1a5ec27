"""Sharp m=5 (d = 31, n = 36) end to end, stage by stage, under fixed limits.

    python tests/sharp5_stages.py

Runs the stages of ``stdpairs.decomposition_for`` and then
``associated_report`` on ``sharp_family(5)``, in one child process whose
address space ``resource.setrlimit`` caps at ADDRESS_SPACE bytes.  Each stage
gets CPU_BUDGET seconds of CPU time, kept by a profiling interval timer.  For
each stage it prints the CPU seconds, the child's peak RSS so far and the
stage's counts.  The first stage that runs out of CPU time or memory is named,
and the run stops there; if the child dies instead, the stage it was in is
named.  The standard pairs come from ``stdpairs._standard_pairs`` with a memo
this script keeps, so a run that ends in that stage still prints how far it
got: the sub-ideals whose split finished and the pairs their memo entries
hold.  The decomposition is built as ``standard_pair_decomposition`` builds
it; ``associated_report`` checks that every maximal cell is associated.
Exits 0 when every stage finished and 1 otherwise.  Not collected by pytest.
"""

import multiprocessing
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from toricip.groebner import CostOrder, toric_groebner  # noqa: E402
from toricip.hilbert import sharp_family  # noqa: E402
from toricip.stdpairs import (  # noqa: E402
    Decomposition,
    StandardPair,
    _minimalize,
    _standard_pairs,
    associated_report,
    initial_ideal,
)
from toricip.triangulation import lex_refinement, regular_subdivision  # noqa: E402

ADDRESS_SPACE = 2 << 30  # bytes, for the child
CPU_BUDGET = 300  # CPU seconds per stage
MEMO = {}  # the standard-pair recursion's memo: (generators, free variables) -> pairs


def _standard_pair_decomposition(ideal, delta):
    n = ideal.nvars
    pairs = _standard_pairs(_minimalize(ideal.generators), tuple(range(n)), n, MEMO)
    return Decomposition.from_pairs([StandardPair(u, f) for u, f in pairs], delta)


def _memo_progress():
    return f"sub-ideals split {len(MEMO)}, pairs stored {sum(map(len, MEMO.values()))}"


# (name, run on (a, cost, results so far), counts of its result)
STAGES = (
    ("regular_subdivision", lambda a, c, got: regular_subdivision(a, c),
     lambda delta: f"cells {len(delta.maximal_faces)}"),
    ("toric_groebner", lambda a, c, got: toric_groebner(a, CostOrder.from_cost(c)),
     lambda gb: f"basis size {len(gb.elements)}, generic {gb.generic}"),
    ("lex_refinement", lambda a, c, got: lex_refinement(got["regular_subdivision"]),
     lambda delta: f"simplices {len(delta.maximal_faces)}"),
    ("standard_pair_decomposition",
     lambda a, c, got: _standard_pair_decomposition(initial_ideal(got["toric_groebner"]),
                                                    got["lex_refinement"]),
     lambda decomp: f"pairs {decomp.arithmetic_degree}, {_memo_progress()}"),
    ("associated_report",
     lambda a, c, got: associated_report(got["standard_pair_decomposition"], got["lex_refinement"]),
     lambda rep: (f"sets {len(rep.associated_sets)}, chain {rep.max_chain_length}, "
                  f"bound {rep.length_bound}")),
)


class OutOfCpu(Exception):
    pass


def _out_of_cpu(signum, frame):
    raise OutOfCpu


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024  # ru_maxrss is in KiB


def _child(conn):
    """Run every stage; send each stage's name before it starts."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    signal.signal(signal.SIGPROF, _out_of_cpu)
    a, cost = sharp_family(5)
    got = {}
    for name, run, counts in STAGES:
        conn.send(name)
        start = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, CPU_BUDGET)
        try:
            got[name] = run(a, cost, got)
        except (OutOfCpu, MemoryError) as exc:
            signal.setitimer(signal.ITIMER_PROF, 0)
            got.clear()
            progress = f", {_memo_progress()}" if MEMO else ""
            MEMO.clear()
            what = "CPU time" if isinstance(exc, OutOfCpu) else "memory"
            print(f"{name}: ran out of {what} after {time.process_time() - start:.1f} CPU s, "
                  f"peak RSS {_peak_rss_mib()} MiB{progress}", flush=True)
            sys.exit(1)
        signal.setitimer(signal.ITIMER_PROF, 0)
        print(f"{name}: {time.process_time() - start:.1f} CPU s, peak RSS {_peak_rss_mib()} MiB, "
              f"{counts(got[name])}", flush=True)
    conn.send(None)


def main():
    print(f"sharp m=5, address space {ADDRESS_SPACE >> 20} MiB, {CPU_BUDGET} CPU s per stage",
          flush=True)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(send,))
    proc.start()
    send.close()
    stage = None
    while True:
        try:
            stage = recv.recv()
        except EOFError:
            break
    proc.join()
    if proc.exitcode < 0:
        print(f"{stage}: the child died by signal {-proc.exitcode}", flush=True)
    if stage is None and proc.exitcode == 0:
        print("every stage finished")
        return 0
    print(f"stopped in {stage}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
