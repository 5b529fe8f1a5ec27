"""The four workloads: set-up, operations and the check of every answer.

Each workload has a set-up, which builds the inputs and the reference answers
from the seed, and a list of operations as ``(label, run, check)`` triples.
``run`` makes only library calls (or starts one child process) and is what the
benchmark times; ``check`` returns ``None`` or a message saying why the answer
is wrong.
"""

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import data
from toricip import cli, oracle
from toricip.core import IntMatrix, cached_kernel_basis, face_determinant, gcd_maximal_minors
from toricip.groebner import CostOrder, cached_groebner, solve_ip
from toricip.hilbert import gomory_cost, normality_report, sharp_family
from toricip.oracle import brute_force_standard_pairs, enumerate_lattice_points, fiber_solve
from toricip.relax import build_relaxation, solve_relaxation, solve_via_standard_pairs
from toricip.stdpairs import (
    associated_report,
    decomposition_for,
    initial_ideal,
    is_gomory_family,
    relaxations_solving,
)
from toricip.triangulation import (
    cached_subdivision,
    optimal_face,
    regular_subdivision,
    unimodularity_report,
)

CACHES = {
    "core.kernel_cache": cached_kernel_basis,
    "groebner.cache": cached_groebner,
    "triangulation.cache": cached_subdivision,
    "oracle.recession_cache": oracle._recession_trivial,
}


def clear_caches(tracer):
    """Empty the library caches, first adding their hit counts to the tracer."""
    for name, cache in CACHES.items():
        info = cache.cache_info()
        tracer.counters[name + "_hits"] += info.hits
        tracer.counters[name + "_misses"] += info.misses
        cache.cache_clear()


def _certificates_ok(delta):
    """y.a_j = c_j on each cell and y.a_j < c_j off it, in exact arithmetic."""
    a, cost = delta.matrix, delta.cost
    for cell, y in zip(delta.maximal_faces, delta.certificates):
        for j in range(a.n):
            val = sum(Fraction(v) * w for v, w in zip(a.column(j), y))
            if (val != cost[j]) if j in cell else (val >= cost[j]):
                return False
    return True


# ----------------------------------------------------------------- pipeline


def _generate(seed, name):
    """The pool instances with their acceptance right-hand sides, in seeded order."""
    out = []
    for s in data.POOL:
        a, c = data.make_instance(s)
        faces = regular_subdivision(a, c).faces()
        out.append({"seed": s, "a": a, "c": c, "rhs": data.acceptance_rhs(s, a, faces)})
    random.Random(f"{name}/{seed}").shuffle(out)
    return out


def pipeline_setup(seed):
    return _generate(seed, "pipeline")


def _pipeline_run(inst):
    a, c = inst["a"], inst["c"]
    delta, gb, decomp, refined = decomposition_for(a, c)
    report = associated_report(decomp, delta)
    unimodularity_report(a, delta)
    is_gomory_family(decomp, delta)
    order = CostOrder.from_cost(c)
    rows = []
    for b, tau in inst["rhs"]:
        star = solve_ip(a, order, b)
        via_pairs, _ = solve_via_standard_pairs(decomp, a, b)
        optimal_face(delta, b)
        lifted = solve_relaxation(build_relaxation(a, c, delta, tau, b))
        rows.append((b, star, via_pairs, lifted))
    return delta, decomp, refined, report, rows


def _pipeline_check(inst, result):
    a = inst["a"]
    delta, decomp, refined, report, rows = result
    if refined:
        return "generic cost was refined"
    maximal = set(delta.maximal_faces)
    if {p.face for p in decomp.pairs if not any(p.root)} != maximal:
        return "zero-rooted pairs differ from the maximal faces"
    g = gcd_maximal_minors(a)
    volumes = {s: face_determinant(a, s) // g for s in maximal}
    if any(decomp.multiplicities.get(s) != v for s, v in volumes.items()):
        return "maximal-face multiplicity differs from normalized volume"
    corank = a.n - a.d
    if report.max_chain_length > min(a.d, 2**corank - (corank + 1)):
        return "chain longer than the bound"
    if corank == 2 and report.max_chain_length > 1:
        return "chain longer than 1 at corank 2"
    if decomp.arithmetic_degree < sum(volumes.values()):
        return "arithmetic degree below the total volume"
    for b, star, via_pairs, lifted in rows:
        if star != via_pairs:
            return f"solve_ip {star} != solve_via_standard_pairs {via_pairs} at b={b}"
        if a.apply(lifted.x) != tuple(b):
            return f"lifted relaxation point misses A x = b at b={b}"
    return None


def pipeline_ops(state):
    return [
        (f"seed{inst['seed']}",
         lambda inst=inst: _pipeline_run(inst),
         lambda result, inst=inst: _pipeline_check(inst, result))
        for inst in state
    ]


# ------------------------------------------------------------------- oracle


def oracle_setup(seed):
    insts = _generate(seed, "oracle")
    for inst in insts:
        a, c = inst["a"], inst["c"]
        delta, gb, decomp, _ = decomposition_for(a, c)
        order = CostOrder.from_cost(c)
        refs = []
        for b, tau in inst["rhs"]:
            star = solve_ip(a, order, b)
            # the algebraic answer to "does the tau-relaxation solve the
            # program": tau lies in a face of a standard pair covering the
            # optimum (the relax tests hold it equal to solve_relaxation)
            solves = tau in relaxations_solving(star, decomp)
            refs.append((b, tau, star, solves))
        inst.update(
            delta=delta,
            pairs=set(decomp.pairs),
            box=[max(m - 1, 0) for m in initial_ideal(gb).max_exponents()],
            refs=refs,
        )
    return insts


def _oracle_run(inst):
    a, c = inst["a"], inst["c"]
    odec = brute_force_standard_pairs(a, c, inst["delta"], root_box=inst["box"], margin=1)
    fibers = [fiber_solve(a, c, b) for b, _, _, _ in inst["refs"]]
    singles = [
        enumerate_lattice_points(oracle.q_polytope(a, c, star, tau), limit=2)
        for _, tau, star, _ in inst["refs"]
    ]
    return odec, fibers, singles


def _oracle_check(inst, result):
    odec, fibers, singles = result
    if set(odec.pairs) != inst["pairs"]:
        return "brute-force pairs differ from the algebraic pairs"
    origin = [(0,) * (inst["a"].n - inst["a"].d)]
    for (b, _, star, solves), fib, pts in zip(inst["refs"], fibers, singles):
        if fib != star:
            return f"fiber_solve {fib} != solve_ip {star} at b={b}"
        if (pts == origin) != solves:
            return f"singleton q-polytope test disagrees with solves_ip at b={b}"
    return None


def oracle_ops(state):
    return [
        (f"seed{inst['seed']}",
         lambda inst=inst: _oracle_run(inst),
         lambda result, inst=inst: _oracle_check(inst, result))
        for inst in state
    ]


# -------------------------------------------------------------------- scale

def scale_setup(seed):
    census = {name: IntMatrix(rows) for name, rows in data.CENSUS.items()}
    return {
        "seed": seed,
        "sharp3": sharp_family(3),
        "sharp4": sharp_family(4),
        "census": census,
        "tri4x7": regular_subdivision(census["census4x7"], data.CENSUS_COSTS["census4x7"][0]),
        "long_chain": IntMatrix(data.LONG_CHAIN),
        "gfamily": IntMatrix(data.GFAMILY),
        "nonnormal": IntMatrix(data.NONNORMAL),
    }


def _sharp3_run(a, cost):
    delta, _, decomp, _ = decomposition_for(a, cost)
    return decomp, associated_report(decomp, delta)


def _sharp3_check(result):
    decomp, report = result
    mults = {tuple(i + 1 for i in f): v for f, v in decomp.multiplicities.items()}
    if mults != data.SHARP3_TABLE:
        return "sharp m=3 multiplicities differ from the published table"
    if report.max_chain_length != 4:
        return f"sharp m=3 chain length {report.max_chain_length} != 4"
    return None


def _census_check(result):
    delta, _, decomp, refined = result
    if refined or not delta.is_triangulation:
        return "generic census cost did not give a triangulation"
    if not _certificates_ok(delta):
        return "census cell certificate check failed"
    return None


def _sharp4_check(delta):
    if len(delta.maximal_faces) != 16:
        return f"sharp m=4 subdivision has {len(delta.maximal_faces)} cells, not 16"
    if not _certificates_ok(delta):
        return "sharp m=4 cell certificate check failed"
    return None


def _normality_check(expect):
    def check(rep):
        got = {k: getattr(rep, k) for k in expect}
        return None if got == expect else f"normality {got} != {expect}"
    return check


def _gomory_cost_check(result):
    e = lambda i: tuple(1 if j == i - 1 else 0 for j in range(6))
    roots = sorted(p.root for p in result.pairs)
    if roots != sorted([(0,) * 6, e(3), e(4), e(5)]):
        return f"gomory_cost roots {roots}"
    if {p.face for p in result.pairs} != {(0, 1, 5)}:
        return "gomory_cost pairs left the requested cell"
    return None


def scale_ops(state):
    a3, c3 = state["sharp3"]
    a4, c4 = state["sharp4"]
    ops = [("sharp3", lambda: _sharp3_run(a3, c3), _sharp3_check)]
    for name, a in state["census"].items():
        for k, c in enumerate(data.CENSUS_COSTS[name]):
            ops.append((f"{name}/cost{k}",
                        lambda a=a, c=c: decomposition_for(a, c), _census_check))
    ops += [
        ("sharp4/subdivision", lambda: regular_subdivision(a4, c4), _sharp4_check),
        ("normality/census4x7",
         lambda: normality_report(state["census"]["census4x7"], state["tri4x7"]),
         _normality_check({"normal": True})),
        # long chain: no published normality reference; these are the values
        # the library gives, kept so that a change to them shows as a failure
        ("normality/long_chain",
         lambda: normality_report(state["long_chain"], None, check_super=True),
         _normality_check({"normal": False, "witness": (0, 0, 1), "supernormal": False})),
        ("normality/gfamily",
         lambda: normality_report(state["gfamily"], None, check_super=True),
         _normality_check({"normal": True, "supernormal": False})),
        ("normality/nonnormal",
         lambda: normality_report(state["nonnormal"]),
         _normality_check({"normal": False, "witness": (1, 2)})),
        ("gomory_cost", lambda: gomory_cost(state["gfamily"], [(0, 1, 5)]),
         _gomory_cost_check),
    ]
    random.Random(f"scale/{state['seed']}").shuffle(ops)
    return ops


# ---------------------------------------------------------------------- cli

FIXTURES = {
    "knap.mat": "1 3\n2 5 8\n",
    "knap.cost": "10000 100 1\n",
    "ex1.mat": "2 4\n1 1 1 1\n0 1 2 3\n",
    "ex1.cost": "1 0 0 1\n",
    "lc.mat": "3 6\n5 0 0 2 1 0\n0 5 0 1 4 2\n0 0 5 2 0 3\n",
    "lc.cost": "21 6 1 0 0 0\n",
    "gf.mat": "3 6\n1 0 1 1 1 1\n0 1 1 1 2 2\n0 0 1 2 3 4\n",
    "gf.cost": "0 0 1 1 0 3\n",
    "gf.tri": "[[1, 2, 6]]\n",
    "nn.mat": "2 4\n1 1 1 1\n0 1 3 4\n",
    "gens.mat": "2 2\n1 1\n0 4\n",
    "sq.mat": "4 2\n1 0\n-1 0\n0 1\n0 -1\n",
    "sq.off": "1 0 1 0\n",
}

# one child process only imports the package: the interpreter and import floor
IMPORT_ARGV = ["-c", "import toricip.cli"]


def cli_argvs(seed, f):
    """(span name, argv, known values) per subcommand; f maps fixture -> path."""
    rng = random.Random(f"cli/{seed}")
    knap_b = str(sum(w * rng.randint(0, 6) for w in (2, 5, 8)))
    lc_b = " ".join(
        str(v) for v in IntMatrix(data.LONG_CHAIN).apply([rng.randint(0, 3) for _ in range(6)]))
    knap = ["--matrix", f["knap.mat"], "--cost", f["knap.cost"]]
    lc = ["--matrix", f["lc.mat"], "--cost", f["lc.cost"]]
    gf = ["--matrix", f["gf.mat"], "--cost", f["gf.cost"]]
    return [
        ("triangulate", ["triangulate", "--matrix", f["ex1.mat"], "--cost", f["ex1.cost"]], {}),
        ("groebner", ["groebner", *knap], {}),
        ("solve", ["solve", *knap, "--rhs", "27"], {"optimum": [1, 5, 0], "value": 10500}),
        ("solve", ["solve", *lc, "--rhs", lc_b], {}),
        ("relax", ["relax", *knap, "--rhs", knap_b, "--face", "3"], {}),
        ("solve_sp", ["solve-sp", *knap, "--rhs", knap_b], {}),
        ("stdpairs", ["stdpairs", *knap], {"arithmetic_degree": 20}),
        ("stdpairs", ["stdpairs", *lc], {"arithmetic_degree": 70}),
        ("assoc", ["assoc", *lc], {"arithmetic_degree": 70}),
        ("gomory", ["gomory", *gf], {}),
        ("hilbert", ["hilbert", "--generators", f["gens.mat"]], {}),
        ("normality", ["normality", "--matrix", f["nn.mat"]],
         {"normal": False, "witness": [1, 2]}),
        ("normality", ["normality", "--matrix", f["gf.mat"], "--triangulation", f["gf.tri"]],
         {"normal": True, "delta_normal": True}),
        ("gomory_cost", ["gomory-cost", "--matrix", f["gf.mat"],
                         "--triangulation", f["gf.tri"]], {}),
        ("sharp_family", ["sharp-family", "--m", "3"], {"d": 7, "n": 10}),
        ("oracle_points", ["oracle", "points", "--rows", f["sq.mat"], "--offsets", f["sq.off"]],
         {"points": [[0, 0], [0, 1], [1, 0], [1, 1]]}),
        ("oracle_fiber", ["oracle", "fiber", *knap, "--rhs", knap_b], {}),
        ("oracle_stdpairs", ["oracle", "stdpairs", *knap], {"arithmetic_degree": 20}),
    ]


CLI_NAMES = sorted({name for name, _, _ in cli_argvs(0, {k: k for k in FIXTURES})})


def cli_setup(seed, tracer, workdir):
    """Write the fixture files and record each command's in-process output.

    Returns (span name, argv, known values, reference stdout) per command.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in FIXTURES.items():
        (workdir / name).write_text(text)
        paths[name] = str(workdir / name)
    cmds = []
    for name, argv, known in cli_argvs(seed, paths):
        clear_caches(tracer)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"in-process cli {argv} exited {code}")
        cmds.append((name, argv, known, buf.getvalue().encode()))
    return cmds


def _child(argv, env, tracer, span):
    idx = tracer.begin(span)
    try:
        return subprocess.run([sys.executable, *argv], capture_output=True, env=env,
                              timeout=120, check=False)
    finally:
        tracer.end(idx)


def _cli_check(known, reference):
    def check(proc):
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}"
        lines = proc.stdout.decode().splitlines()
        if len(lines) != 1:
            return f"expected one JSON line, got {len(lines)}"
        doc = json.loads(lines[0])
        if not isinstance(doc, dict):
            return "output is not a JSON object"
        for key, value in known.items():
            if doc.get(key) != value:
                return f"{key}: {doc.get(key)!r} != {value!r}"
        if proc.stdout != reference:
            return "stdout differs from cli.main run in-process"
        return None
    return check


def _import_check(proc):
    if proc.returncode != 0 or proc.stdout:
        return f"import child exited {proc.returncode} with output {proc.stdout[:80]!r}"
    return None


def cli_ops(cmds, env, tracer):
    """One child process per operation; ``env`` points it at the source tree."""
    ops = [("import", lambda: _child(IMPORT_ARGV, env, tracer, "cli.import"), _import_check)]
    for name, argv, known, ref in cmds:
        ops.append((name,
                    lambda argv=argv, name=name: _child(
                        ["-m", "toricip.cli", *argv], env, tracer, "cli." + name),
                    _cli_check(known, ref)))
    return ops
