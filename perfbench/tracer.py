"""Spans and counters taken from outside the library.

A traced run replaces the public functions listed in ``SPANS`` by wrappers
that open a span per call, at every binding inside the loaded ``toricip``
modules, so calls between modules are seen as well as the benchmark's own.
Nothing in the library is edited, and an untraced run installs nothing.

Spans live in memory as ``[name, start, end, parent, op]`` lists and are
written out once, at the end of the run.  Times are read from ``cpu_now``.
A span's self time is its duration minus the durations of its direct
children; calls are sequential, so children never overlap and the self times
of a tree add up to its root's duration.
"""

import functools
import json
import math
import resource
import sys
import time
from collections import Counter
from fractions import Fraction


def probe_s():
    """CPU seconds of one fixed, library-free piece of Python work.

    The work mixes what the library spends its time on (Fraction arithmetic,
    tuple building, hashing into dicts), so its time tracks the host's speed
    for this kind of code, and no change to the library can alter it.
    """
    t0 = cpu_now()
    acc = Fraction(0)
    rows = [tuple(range(i, i + 8)) for i in range(40)]
    seen = {}
    for k in range(1, 300):
        acc += Fraction(k % 7 + 1, k + 3)
        rows = [tuple(a - b + 1 for a, b in zip(r, rows[k % 40])) for r in rows]
        seen.update((r, k) for r in rows)
    if acc <= 0 or not seen:
        raise AssertionError("probe lost its work")
    return cpu_now() - t0


def cpu_now():
    """CPU seconds used by this process and its waited-for children.

    The benchmark times with this clock, not the wall clock: on a shared host,
    time stolen by other tenants made the wall time of one and the same
    operation vary by 20 %, while its CPU time varied by 3 %.  The library is
    single-threaded and does no I/O, so on an idle machine the two agree.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counters = Counter()

    def begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, cpu_now(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = cpu_now()
        self.stack.pop()

    def self_times(self):
        """Per-name self seconds, total seconds and call counts; root seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        total_s = Counter()
        calls = Counter()
        roots = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            total_s[name] += end - start
            calls[name] += 1
            if parent < 0:
                roots += end - start
        return self_s, total_s, calls, roots

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


class NullTracer:
    """Stand-in for untraced runs: spans cost one method call and record nothing."""

    def __init__(self):
        self.op = None
        self.counters = Counter()

    def begin(self, name):
        return 0

    def end(self, idx):
        pass


def _count_subdivision(c, args, out):
    a = args[0]
    c["triangulation.cells"] += len(out.maximal_faces)
    c["triangulation.subsets"] += math.comb(a.n, a.d)


def _count_groebner(c, args, out):
    c["groebner.bases"] += 1
    c["groebner.basis_size"] += len(out.elements)


def _count_stdpairs(c, args, out):
    c["stdpairs.pairs"] += len(out.pairs)
    c["stdpairs.assoc_sets"] += len(out.multiplicities)
    c["stdpairs.subsets"] += 2 ** args[0].nvars


def _count_relaxation(c, args, out):
    c["relax.solves_ip"] += bool(out.solves_ip)


def _count_points(c, args, out):
    c["oracle.points_kept"] += len(out)
    c["oracle.sweeps"] += 1


def _count_kannan(c, args, out):
    c["oracle.kannan_checked"] += 1
    c["oracle.kannan_degenerate"] += out is None


def _count_hilbert(c, args, out):
    c["hilbert.basis_size"] += len(out.elements)


# (module, function) -> (span name or None for a counter-only wrapper, counter)
SPANS = {
    ("toricip.core", "kernel_lattice_basis"): ("core.kernel", None),
    ("toricip.triangulation", "regular_subdivision"):
        ("triangulation.subdivision", _count_subdivision),
    ("toricip.triangulation", "optimal_face"): ("triangulation.optimal_face", None),
    ("toricip.triangulation", "unimodularity_report"): ("triangulation.unimodularity", None),
    ("toricip.groebner", "toric_groebner"): ("groebner.toric", _count_groebner),
    # decomposition_for's own work (cache lookups, initial ideal, refinement
    # test) is Groebner-side bookkeeping, so its self time joins groebner.toric
    ("toricip.stdpairs", "decomposition_for"): ("groebner.toric", None),
    ("toricip.groebner", "is_generic"): ("groebner.is_generic", None),
    ("toricip.groebner", "solve_ip"): ("groebner.solve_ip", None),
    ("toricip.stdpairs", "standard_pair_decomposition"):
        ("stdpairs.decomposition", _count_stdpairs),
    ("toricip.stdpairs", "associated_report"): ("stdpairs.assoc_report", None),
    ("toricip.stdpairs", "is_gomory_family"): ("stdpairs.gomory_check", None),
    ("toricip.relax", "build_relaxation"): ("relax.build", None),
    ("toricip.relax", "solve_relaxation"): ("relax.solve", _count_relaxation),
    ("toricip.relax", "solve_via_standard_pairs"): ("relax.solve_sp", None),
    ("toricip.oracle", "brute_force_standard_pairs"): ("oracle.brute_pairs", None),
    ("toricip.oracle", "fiber_solve"): ("oracle.fiber_solve", None),
    ("toricip.oracle", "enumerate_lattice_points"): ("oracle.enumerate", _count_points),
    ("toricip.oracle", "q_polytope"): ("oracle.enumerate", None),
    ("toricip.oracle", "kannan_root_bound"): ("oracle.kannan", _count_kannan),
    ("toricip.oracle", "lattice_points_boxed"): (None, _count_points),
    ("toricip.hilbert", "hilbert_basis"): ("hilbert.basis", _count_hilbert),
    ("toricip.hilbert", "normality_report"): ("hilbert.normality", None),
    ("toricip.hilbert", "gomory_cost"): ("hilbert.gomory_cost", None),
    ("toricip.hilbert", "sharp_family"): ("hilbert.sharp_family", None),
    ("toricip.cli", "main"): ("cli.inproc", None),
    ("toricip.fileio", "read_matrix"): ("fileio.read", None),
    ("toricip.fileio", "read_raw_matrix"): ("fileio.read", None),
    ("toricip.fileio", "read_vector"): ("fileio.read", None),
    ("toricip.fileio", "read_face"): ("fileio.read", None),
    ("toricip.fileio", "read_faces_json"): ("fileio.read", None),
}


def _wrap(fn, name, count, tracer):
    if name is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(tracer.counters, args, out)
            return out
        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if count is not None:
            count(tracer.counters, args, out)
        return out
    return traced


def install(tracer, callers):
    """Route every binding of the ``SPANS`` functions through span wrappers.

    Bindings are replaced in the loaded ``toricip`` modules and in the
    benchmark modules ``callers``, which imported the functions by name.
    """
    import toricip.cli  # noqa: F401  (load every module that holds a binding)
    from toricip.core import IntMatrix

    wrapped = {}
    for (modname, attr), (name, count) in SPANS.items():
        fn = getattr(sys.modules[modname], attr)
        wrapped[id(fn)] = (fn, _wrap(fn, name, count, tracer))
    modules = [m for name, m in sys.modules.items()
               if name == "toricip" or name.startswith("toricip.")]
    for module in modules + list(callers):
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    # IntMatrix construction (with its validation LP) runs in __post_init__
    IntMatrix.__post_init__ = _wrap(IntMatrix.__post_init__, "core.intmatrix", None, tracer)
