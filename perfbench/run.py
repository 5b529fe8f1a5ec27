"""toricip benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 8 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  The
run sets up its inputs ``SETUP_REPS`` times (each from cold caches), then
times whole passes over the workload's operations, one at a time, until
``--seconds`` of wall time have passed.  Every operation starts from cold
library caches, so its time does not depend on the order.  Times are CPU
seconds of the process and its children (see ``tracer.cpu_now``).  Every
answer is checked.  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  A traced run also writes its spans to
``.bench_build/perfbench/``.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("pipeline", "oracle", "scale", "cli")
# set-up runs at least SETUP_REPS times and until SETUP_MIN_S CPU seconds are
# spent, so that a set-up of a few milliseconds still gets a steady median
SETUP_REPS = 3
SETUP_MIN_S = 1.0
# Host-speed normalization.  A fixed probe (tracer.probe_s) runs before every
# set-up and every operation and once after the last, outside the timed
# regions.  A reported time is CPU seconds scaled by PROBE_REF_S / (mean time
# of the probes around it): seconds on the host this benchmark was written
# on, at its typical speed.  On that shared host the CPU time of identical
# work moved by up to 30 % between runs minutes apart, and the probe moved
# with it.  PROBE_REF_S is the probe's median there; changing it rescales
# every reported time.
PROBE_REF_S = 0.0237
PROBE_WINDOW = 8


def scaled(times, probes):
    """Each time scaled by the probes within PROBE_WINDOW of it.

    ``probes[i]`` ran just before ``times[i]`` and ``probes[i + 1]`` just after.
    """
    half = PROBE_WINDOW // 2
    return [t * PROBE_REF_S / statistics.mean(probes[max(0, i - half + 1):i + half + 1])
            for i, t in enumerate(times)]
TAIL_MIN_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(durations):
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    k = len(durations) - TAIL_MIN_BEYOND
    if k < 1:
        return None
    return sorted(durations)[k - 1], 100 * k // len(durations)


def peak_rss_mib(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def span_names(wl, tracer_mod):
    names = {name for name, _ in tracer_mod.SPANS.values() if name}
    names |= {"core.intmatrix", "cli.import"} | {"cli." + n for n in wl.CLI_NAMES}
    return sorted(names)


RATIOS = {
    # ratio: (numerator counter, counters summed into the base)
    "triangulation.cells_per_subset": ("triangulation.cells", ("triangulation.subsets",)),
    "groebner.cache_hit_frac":
        ("groebner.cache_hits", ("groebner.cache_hits", "groebner.cache_misses")),
    "stdpairs.assoc_per_subset": ("stdpairs.assoc_sets", ("stdpairs.subsets",)),
    "relax.solves_ip_frac": ("relax.solves_ip", ("relax.solve.calls",)),
    "oracle.kannan_degenerate_frac": ("oracle.kannan_degenerate", ("oracle.kannan_checked",)),
}

COUNTERS = (
    "core.kernel_cache_hits", "core.kernel_cache_misses",
    "triangulation.cells", "triangulation.subsets",
    "groebner.bases", "groebner.basis_size", "groebner.cache_hits", "groebner.cache_misses",
    "stdpairs.pairs", "stdpairs.assoc_sets", "stdpairs.subsets",
    "relax.solves_ip",
    "oracle.points_kept", "oracle.sweeps", "oracle.kannan_checked",
    "oracle.kannan_degenerate", "oracle.recession_cache_hits", "oracle.recession_cache_misses",
    "hilbert.basis_size",
)


def layer_metrics(tracer, names, ops_done, ops_s):
    """Per-layer self time, call counts, counters and ratios of a traced run.

    Span times stay raw CPU seconds; ``ops_s`` is the host-scaled operation
    time, so ``bench.traced_ops_per_s`` compares with the untraced ``ops_per_s``.
    """
    self_s, total_s, calls, roots = tracer.self_times()
    out = {}
    for name in names:
        out[name + "_s"] = (self_s[name], "s")
        out[name + ".calls"] = (calls[name], "count")
    # in-process CLI time with its children, to set against the child processes
    out["cli.inproc_total_s"] = (total_s["cli.inproc"], "s")
    counts = dict(tracer.counters)
    counts.update({name + ".calls": calls[name] for name in names})
    for name in COUNTERS:
        out[name] = (counts.get(name, 0), "count")
    for name, (num, bases) in RATIOS.items():
        base = sum(counts.get(b, 0) for b in bases)
        out[name] = (counts.get(num, 0) / base if base else 0.0, "ratio")
    bench_self = self_s["bench.op"] + self_s["bench.setup"]
    out["bench.self_s"] = (bench_self, "s")
    out["bench.traced_ops_per_s"] = (ops_done / ops_s, "1/s")
    layers = sum(self_s[n] for n in names)
    return out, layers, bench_self, roots


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "toricip" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'toricip'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import data
    import tracer as tracer_mod
    import workloads as wl
    from tracer import cpu_now, probe_s

    tracer = tracer_mod.Tracer() if args.trace else tracer_mod.NullTracer()
    if args.trace:
        tracer_mod.install(tracer, [data, wl])

    workdir = OUT / f"cli-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        # ------------------------------------------------------------- set-up
        setup_times = []
        setup_probes = []
        while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
            rep = len(setup_times)
            setup_probes.append(probe_s())
            wl.clear_caches(tracer)
            tracer.op = f"setup{rep}"
            idx = tracer.begin("bench.setup")
            t0 = cpu_now()
            if args.workload == "cli":
                state = wl.cli_setup(args.seed, tracer, workdir)
            else:
                state = getattr(wl, args.workload + "_setup")(args.seed)
            setup_times.append(cpu_now() - t0)
            tracer.end(idx)
        if args.workload == "cli":
            ops = wl.cli_ops(state, env, tracer)
        else:
            ops = getattr(wl, args.workload + "_ops")(state)
        # long-lived inputs leave the collector's working set, and each
        # operation starts from an empty young generation, so a collection
        # triggered by one operation's garbage is not charged to the next
        gc.collect()
        gc.freeze()

        setup_probes.append(probe_s())

        # ---------------------------------------------------------- timed part
        durations = []
        probes = []
        failed = 0
        start = perf_counter()
        passes = 0
        while passes == 0 or perf_counter() - start < args.seconds:
            for label, run, check in ops:
                probes.append(probe_s())
                wl.clear_caches(tracer)
                gc.collect()
                tracer.op = f"pass{passes}/{label}"
                idx = tracer.begin("bench.op")
                t0 = cpu_now()
                try:
                    result = run()
                    err = None
                except Exception as exc:  # a failed operation is counted, not fatal
                    err = f"raised {type(exc).__name__}: {exc}"
                durations.append(cpu_now() - t0)
                if err is None:
                    try:
                        err = check(result)
                    except Exception as exc:
                        err = f"check raised {type(exc).__name__}: {exc}"
                tracer.end(idx)
                if err:
                    failed += 1
                    print(f"FAILED {args.workload} {label}: {err}", file=sys.stderr)
            passes += 1
        probes.append(probe_s())
        wall = perf_counter() - start
        wl.clear_caches(tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(durations)
    timed = sum(durations)
    done = attempted - failed
    correct = failed == 0
    raw_timed = timed
    durations = scaled(durations, probes)
    timed = sum(durations)
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{attempted} operations in {passes} passes, {raw_timed:.3f} CPU s timed "
             f"({timed:.3f} s scaled), {wall:.3f} s wall",
             f"host: mean probe {statistics.mean(probes):.5f} s over {len(probes)} probes "
             f"(reference {PROBE_REF_S} s)",
             f"failed_frac {failed / attempted:.6f} ({failed} of {attempted})"]
    if args.trace:
        names = span_names(wl, tracer_mod)
        metrics, layers, bench_self, roots = layer_metrics(tracer, names, done, timed)
        metrics["bench.probe_s"] = (statistics.mean(probes), "s")
        # self times of a span tree add up to its root: every traced second
        # lands in exactly one layer or in the benchmark's own code
        if not math.isclose(layers + bench_self, roots, rel_tol=1e-9, abs_tol=1e-6):
            correct = False
        lines.append(f"accounted: layers {layers:.6f} s + benchmark {bench_self:.6f} s "
                     f"of {roots:.6f} s traced")
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        tail_value = tail(durations)
        if tail_value is None:
            print("perfbench: too few operations for op_tail_s", file=sys.stderr)
            return 3
        metrics = {
            "setup_s": (statistics.median(scaled(setup_times, setup_probes)), "s"),
            "ops_per_s": (done / timed, "1/s"),
            "op_p50_s": (statistics.median(durations), "s"),
            "op_tail_s": (tail_value[0], "s"),
            "peak_rss_mib": (peak_rss_mib(args.workload), "MiB"),
        }
        lines.append(f"op_tail_s is p{tail_value[1]} of {attempted} operations; unscaled "
                     f"ops_per_s {done / raw_timed:.4f} 1/s; "
                     f"{len(setup_times)} set-up runs, {sum(setup_times):.3f} s in all")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
