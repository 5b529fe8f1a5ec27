"""Apply each named source mutant to a copy of the library and run the tests that must catch it.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME [NAME]  # only the named ones

A mutant is a file under ``src/``, a text that occurs exactly once in it, its
replacement, and the test node ids that must fail once it is made.  For each
mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, patches the copy, and runs pytest there with the copied
``src`` first on ``PYTHONPATH``.  A mutant whose tests fail is killed; one
whose tests pass survived.  The tests are first run once on an unpatched copy,
where they must pass.  Exits 0 when every mutant is killed and 1 otherwise.
Not collected by pytest: every mutant starts its own test run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORACLE = "src/toricip/oracle.py"
CLI = "src/toricip/cli.py"
CORE = "src/toricip/core.py"
FIBERS = "src/toricip/fibers.py"
HILBERT = "src/toricip/hilbert.py"
GROEBNER = "src/toricip/groebner.py"
LINPROG = "src/toricip/linprog.py"
RELAX = "src/toricip/relax.py"
STDPAIRS = "src/toricip/stdpairs.py"
TRIANGULATION = "src/toricip/triangulation.py"
FLOORS = "tests/test_oracle.py::test_floors_are_the_minimal_joins"
SEARCH = "tests/test_oracle.py::test_root_search_matches_reference"
REFUSAL = "tests/test_cli.py::test_oracle_refuses_a_refined_decomposition"
PIPE = "tests/test_cli.py::test_closed_stdout_exits_quietly"
ONE_FACTOR = "tests/test_oracle.py::test_fiber_solve_factors_each_matrix_once"
FIBER_MIN = "tests/test_oracle.py::test_fiber_solve_matches_the_lifted_fiber_minimum"
FIBER_TIES = ("tests/test_oracle.py::"
              "test_fiber_solve_is_the_first_least_cost_point_of_its_fiber_on_tied_costs")
Q_CHECKED = "tests/test_oracle.py::test_q_polytope_equals_the_checked_build_of_its_rows"
NAMED_ROOTS = "tests/test_oracle.py::test_face_roots_match_reference_on_named_cases"
MALFORMED = "tests/test_relax.py::test_inconsistent_library_inputs_are_parse_errors"
RANK_INDEX = "tests/test_linalg.py::test_rank_and_lattice_index_match_the_references"
ONE_REDUCTION = "tests/test_core.py::test_one_column_hermite_reduction_serves_every_reader"
RANK_DEFICIENT = "tests/test_core.py::test_rejects_rank_deficient"
HILBERT_REFERENCE = "tests/test_hilbert.py::test_hilbert_basis_matches_the_all_subsets_reference"
DEGREE_ORDER = "tests/test_hilbert.py::test_hilbert_basis_tests_candidates_in_degree_order"
PARALLELEPIPED = "tests/test_enum.py::test_parallelepiped_named"
ROW_FACTORS = "tests/test_enum.py::test_parallelepiped_rows_may_carry_any_positive_factor"
SATURATED = "tests/test_core.py::test_unsaturated_kernel_basis_is_refused"
LIFT = "tests/test_hilbert.py::test_certificate_lift_matches_the_per_cell_search"
NORMALITY_REFERENCE = ("tests/test_hilbert.py::"
                       "test_normality_report_matches_the_fiber_search_reference")
DELTA_NORMAL = "tests/test_hilbert.py::test_gfamily_delta_normality"
SUPERNORMAL = "tests/test_hilbert.py::test_supernormal_graded_chain"
CELLS_ALONE = "tests/test_hilbert.py::test_gomory_cost_tests_the_cells_alone"
CACHED_FACTOR = "tests/test_hilbert.py::test_gomory_cost_reads_the_cached_factorization"
ONE_MEMO = "tests/test_oracle.py::test_one_memo_serves_every_box"
GB_REFERENCE = "tests/test_groebner.py::test_basis_matches_hermite_seeded_reference"
S_PAIRS = "tests/test_groebner.py::test_sharp3_completions_fully_reduce_143_s_pairs"
FEWER_PASSES = "tests/test_groebner.py::test_sharp_saturates_by_fewer_variables"
REACH = "tests/test_groebner.py::test_saturating_variables_reach_every_variable"
NEGATIVE_REDUCED = "tests/test_groebner.py::test_a_negative_cost_basis_is_reduced"
NEGATIVE_SHIFTED = "tests/test_groebner.py::test_negative_costs_give_the_basis_of_the_shifted_cost"
LLL_REFERENCE = "tests/test_groebner.py::test_basis_matches_lll_seeded_reference"
GRADING_REFERENCE = "tests/test_core.py::test_grading_matches_the_minimizing_lp_reference"
NEGATIVE_EXPONENT = "tests/test_groebner.py::test_normal_form_refuses_a_negative_exponent"
ORDER_COST = "tests/test_groebner.py::test_a_malformed_order_cost_is_named"
ORDER_ITERABLE = "tests/test_groebner.py::test_an_order_built_from_any_iterable_is_equal"
STANDARD_FACE = "tests/test_oracle.py::test_is_standard_polytope_refuses_a_malformed_face"
LEX_SEARCH = "tests/test_triangulation.py::test_lex_refinement_matches_integer_cost_search"
NOT_TRIANGULATION = ("tests/test_triangulation.py::"
                     "test_unimodularity_report_refuses_a_subdivision_that_is_not_a_triangulation")
WALK_SEEDED = "tests/test_subdivision.py::test_walk_matches_the_scan_on_seeded_costs"
WALK_DEGENERATE = "tests/test_subdivision.py::test_walk_matches_the_scan_on_degenerate_costs"
WALK_SHARP = "tests/test_subdivision.py::test_walk_matches_the_scan_on_the_sharp_family"
SHIFTED_COSTS = ("tests/test_subdivision.py::"
                 "test_subdivision_is_invariant_under_cost_shifts_on_acceptance_seeds")
INVERSE_ROWS = "tests/test_subdivision.py::test_inverse_rows_on_degenerate_costs"
RECURSION_RANDOM = "tests/test_stdpairs.py::test_recursion_matches_reference_on_random_antichains"
SQUARE_SCAN = "tests/test_relax.py::test_solve_via_pairs_matches_square_system_scan"
RELAX_ACCEPTANCE = "tests/test_relax.py::test_solve_matches_enumerate_and_min_on_acceptance_rhs"
SOLVES_FACE = ("tests/test_relax.py::"
               "test_solves_ip_is_false_exactly_when_a_face_coordinate_of_the_lift_is_negative")
OPTIMAL_FACE = "tests/test_triangulation.py::test_optimal_face_examples"
REPLAN = "tests/test_groebner.py::test_each_replan_reaches_every_variable_from_its_seed"
SEED_CLOSED = "tests/test_groebner.py::test_a_seed_is_closed_before_the_greedy_grows_it"
SWEEP_SEEDED = "tests/test_elimination.py::test_seeded_reuse"
SWEEP_BACKTRACK = "tests/test_elimination.py::test_backtracking_after_an_inner_dead_end"
SWEEP_LIMIT = "tests/test_elimination.py::test_a_limit_inside_the_last_coordinates_range"
SWEEP_DEAD_END = ("tests/test_elimination.py::"
                  "test_a_dead_end_before_an_unbounded_coordinate_is_empty")
PAIRS_SEEDS = ("tests/test_stdpairs.py::"
               "test_pairs_match_reference_enumeration_on_acceptance_seeds")
SLICES = "tests/test_stdpairs.py::test_slices_equal_the_minimalized_slices_on_random_antichains"
PAIR_HOMES = ("tests/test_stdpairs.py::"
              "test_pair_scan_homes_each_face_on_the_first_simplex_that_holds_it")
CONTAINS = "tests/test_stdpairs.py::test_contains_refuses_a_malformed_exponent"

# name: (file, old text, new text, tests that must fail)
MUTANTS = {
    "floor-join-strict-domination": (
        ORACLE, "and not any(all(map(le, th, j))", "and not any(all(map(int.__lt__, th, j))",
        [FLOORS]),
    "floor-join-cap-check-removed": (
        ORACLE, "floors = _minimal(j for j in joins if all(map(le, j, caps))",
        "floors = _minimal(j for j in joins if True", [FLOORS]),
    "floor-minimality-dropped": (
        ORACLE, "floors = _minimal(j for j in joins", "floors = sorted(j for j in joins",
        [FLOORS]),
    "dead-floor-lives-one-value-longer": (
        ORACLE, "spans.append((f[depth], end, f))", "spans.append((f[depth], end + 1, f))",
        [SEARCH]),
    "live-threshold-kept-one-value-late": (
        ORACLE, "[th for th in live if th[depth] <= v]", "[th for th in live if th[depth] < v]",
        [SEARCH]),
    "fiber-solve-refactors-per-rhs": (
        ORACLE, "    fac = a.fibers\n", "    fac = IntMatrix(a.entries).fibers\n", [ONE_FACTOR]),
    "fiber-solve-last-tie": (
        ORACLE, "zs), count()), default=None)", "zs), count(0, -1)), default=None)\n"
        "    best = best and (best[0], -best[1])", [FIBER_MIN, FIBER_TIES]),
    "q-polytope-rows-as-a-list": (
        ORACLE, "return IneqPolytope(tuple(rows))", "return IneqPolytope(rows)", [Q_CHECKED]),
    "face-filter-strict": (
        ORACLE, "if dot(brows[k], z) <= caps[k]]", "if dot(brows[k], z) < caps[k]]", [NAMED_ROOTS]),
    "face-filter-dropped": (
        ORACLE, "[z for z in points if dot(brows[k], z) <= caps[k]]", "points", [ONE_MEMO]),
    "memo-key-drops-caps": (
        ORACLE, "return tuple((brows[i], caps[i]) for i in kept)",
        "return tuple(brows[i] for i in kept)", [ONE_MEMO]),
    "unbounded-face-returns-no-roots": (
        ORACLE, """raise Unbounded("the face's capped polytope is unbounded")""", "return []",
        [NAMED_ROOTS]),
    "q-polytope-checks-removed": (
        ORACLE, """    u, tau = int_vector(u, a.n, "u"), _face(tau, a.n)\n""", "", [MALFORMED]),
    "refined-oracle-refusal-removed": (
        CLI, "        if refined:  # the oracle", "        if False:  # the oracle", [REFUSAL]),
    "broken-pipe-handler-removed": (
        CLI, """    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed stdout fails here, not in the exit-time flush
        return code
    except BrokenPipeError:  # the reader left: quietly, with stdout on devnull for that flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
""", "    return _run(argv)\n", [PIPE]),
    "lattice-index-drops-abs": (
        CORE, "return abs(prod(h[c] for h, c in zip(fac.h, fac.pivots)))",
        "return prod(h[c] for h, c in zip(fac.h, fac.pivots))", [RANK_INDEX]),
    "rank-counts-unpivoted-rows": (
        FIBERS, "return len(self.pivots) - self.pivots.count(None)", "return len(self.pivots)",
        [RANK_INDEX, RANK_DEFICIENT]),
    "sweep-backtrack-one-past-the-top": (
        FIBERS, "while k >= 0 and prefix[k] == tops[k]:", "while k >= 0 and prefix[k] > tops[k]:",
        [SWEEP_BACKTRACK, SWEEP_SEEDED]),
    "sweep-last-level-ignores-the-limit": (
        FIBERS, "for v in range(lo, lo + limit - len(out))]", "for v in range(lo, hi + 1)]",
        [SWEEP_LIMIT, SWEEP_SEEDED]),
    "sweep-raises-on-any-unbounded-level": (
        FIBERS, "        levels.reverse()\n",
        "        levels.reverse()\n        if not self.bounded:\n            raise Unbounded('')\n",
        [SWEEP_DEAD_END]),
    "kernel-basis-refactors-the-matrix": (
        CORE, "for row in a.fibers.u)", "for row in factor(a.entries).u)", [ONE_REDUCTION]),
    "parallelepiped-integrality-off-the-minor-dropped": (
        HILBERT, "        if all(v % size == 0 for v in x):\n", "        if True:\n",
        [PARALLELEPIPED, HILBERT_REFERENCE]),
    "hilbert-candidates-in-lex-order": (
        HILBERT, "sorted(cands, key=lambda x: (dot(m.grading, [x[i] for i in keep]), x))",
        "sorted(cands)",
        [HILBERT_REFERENCE, DEGREE_ORDER]),
    "parallelepiped-cosets-from-the-first-pivot": (
        HILBERT, "product(*map(range, sizes))", "product(*(range(sizes[0]) for _ in sizes))",
        [PARALLELEPIPED, HILBERT_REFERENCE]),
    "hilbert-cone-test-strict": (
        HILBERT, "dot(row, v) >= 0", "dot(row, v) > 0", [HILBERT_REFERENCE]),
    "hilbert-first-simplex-only": (
        HILBERT, "_lex_feasible_bases(m, (0,) * m.n)]\n",
        "_lex_feasible_bases(m, (0,) * m.n)][:1]\n", [HILBERT_REFERENCE]),
    "parallelepiped-rows-read-as-the-adjugate": (
        HILBERT, "size * v // scale", "v", [ROW_FACTORS, HILBERT_REFERENCE]),
    "walk-inverse-rows-in-basis-order": (
        TRIANGULATION, "[n:n + len(basis)]) for i in order)",
        "[n:n + len(basis)]) for i in range(len(basis)))",
        [INVERSE_ROWS, HILBERT_REFERENCE]),
    "refinement-takes-the-first-cell-certificate": (
        TRIANGULATION, "tuple(map(certificates.get, delta.simplex_cells))",
        "(delta.certificates[0],) * len(simplices)", [LEX_SEARCH, WALK_DEGENERATE]),
    "subdivision-keeps-the-start-cell-for-every-simplex": (
        TRIANGULATION, "simplices.append(((sigma, rows), cell))",
        "simplices.append(((sigma, rows), next(iter(cells))))", [LEX_SEARCH, WALK_DEGENERATE]),
    "standard-pairs-keep-every-slice-pair": (
        STDPAIRS, "if any(all(map(le, g, lifted)) for g in colon):", "if True:",
        [RECURSION_RANDOM, PAIRS_SEEDS]),
    "slice-keeps-a-dominated-generator": (
        STDPAIRS, "kept = [h for h in kept if not any(all(map(le, g, h)) for g in new)] + new",
        "kept = kept + new", [SLICES]),
    "meet-test-drops-the-face-lift": (
        STDPAIRS, "lifted[i] = top", "lifted[i] = 0", [RECURSION_RANDOM, PAIRS_SEEDS]),
    "pair-scan-face-only-meets-its-simplex": (
        STDPAIRS, "if m & s == m)", "if m & s)", [PAIR_HOMES]),
    "contains-truncates-the-exponent": (
        STDPAIRS, 'u = int_vector(u, self.nvars, "exponent")', "u = tuple(u)", [CONTAINS]),
    "standard-pairs-slice-skips-its-lowest-exponent": (
        STDPAIRS, "for j in range(lo, hi)]", "for j in range(lo + 1, hi)]",
        [RECURSION_RANDOM, PAIRS_SEEDS]),
    "standard-pairs-colon-face-drops-x": (
        STDPAIRS, "(u, tuple(sorted(f + (x,))))", "(u, f)", [RECURSION_RANDOM, PAIRS_SEEDS]),
    "saturation-check-removed": (
        CORE, "    if None in pivots or any(abs(row[c]) != 1 for row, c in zip(h, pivots)):",
        "    if False:", [SATURATED]),
    "gomory-lift-takes-min": (
        HILBERT, "max(dot(a.column(j), y) for y in sub.certificates)",
        "min(dot(a.column(j), y) for y in sub.certificates)", [LIFT]),
    "containment-in-the-cone-generators-only": (
        HILBERT, "    cols = {a.column(j) for j in range(a.n)}\n", "    cols = set(gens)\n",
        [NORMALITY_REFERENCE, DELTA_NORMAL]),
    "witness-is-the-last-missing-element": (
        HILBERT, "for h in hilbert_basis(gens).elements if h not in cols",
        "for h in reversed(hilbert_basis(gens).elements) if h not in cols", [NORMALITY_REFERENCE]),
    "supernormality-tries-single-columns-only": (
        HILBERT, "for size in range(1, len(distinct) + 1)", "for size in range(1, 2)",
        [NORMALITY_REFERENCE, SUPERNORMAL]),
    "gomory-cell-check-skipped": (
        HILBERT, "    if any(_first_missing(a, [a.column(j) for j in sigma])",
        "    if False and any(_first_missing(a, [a.column(j) for j in sigma])", [CELLS_ALONE]),
    "gomory-cost-refactors-the-matrix": (
        HILBERT, "    fac = a.fibers\n", "    fac = IntMatrix(a.entries).fibers\n", [CACHED_FACTOR]),
    "coprime-heads-any": (
        GROEBNER, "bool(m & g[2])", "m & g[2] == m | g[2]", [GB_REFERENCE, LLL_REFERENCE]),
    "chain-ignores-pending-pairs": (
        GROEBNER, "        if queue:\n            queue[:] = _chain(queue, basis, u)\n", "", [S_PAIRS]),
    "chain-drops-the-lcm-guards": (
        GROEBNER, "not all(map(le, h, e[4]))\n            or tuple(map(max, h, basis[e[2]][0])) == e[4]"
        "\n            or tuple(map(max, h, basis[e[3]][0])) == e[4]]",
        "not all(map(le, h, e[4]))]", [GB_REFERENCE, LLL_REFERENCE]),
    "lcm-criterion-keeps-every-pair": (
        GROEBNER, "for rank, i, lcm, lm in _minimal_lcms(cands) if rank & 1]",
        "for rank, i, lcm, lm in cands if rank & 1]", [S_PAIRS]),
    "farkas-ray-rhs-sign-flipped": (
        LINPROG, "[v - art[d] + z[-1] for v in art[:d]]", "[v - art[d] - z[-1] for v in art[:d]]",
        [GRADING_REFERENCE]),
    "farkas-ray-negated": (
        LINPROG, "[v - art[d] + z[-1] for v in art[:d]]", "[art[d] - z[-1] - v for v in art[:d]]",
        [GRADING_REFERENCE]),
    "saturation-closure-on-overlap": (
        GROEBNER, "if not p & ~reach or not q & ~reach:", "if p & reach or q & reach:",
        [GB_REFERENCE, LLL_REFERENCE, REACH]),
    "saturation-drops-last-variable": (
        GROEBNER, "    return chosen\n", "    return chosen[:-1]\n",
        [GB_REFERENCE, LLL_REFERENCE, REACH, FEWER_PASSES]),
    "interreduce-minimalizes-in-key-order": (
        GROEBNER, "key=lambda g: (sum(g[0]), g[5])", "key=itemgetter(5)",
        [NEGATIVE_REDUCED, NEGATIVE_SHIFTED]),
    "negative-exponent-accepted": (
        GROEBNER, "    if min(u, default=0) < 0:", "    if False:", [NEGATIVE_EXPONENT]),
    "order-cost-length-read-first": (
        GROEBNER, "        cost = tuple(cost)\n", "", [ORDER_ITERABLE]),
    "standard-polytope-face-sorted-by-hand": (
        ORACLE, "    tau = _face(tau, a.n)\n    if tau not in delta:",
        "    tau = tuple(sorted(tau))\n    if tau not in delta:", [STANDARD_FACE]),
    "order-cost-unchecked": (
        GROEBNER, """    int_vector(order.cost, a.n, "cost of the order")""", "    pass", [ORDER_COST]),
    "pair-scan-off-face-zero-test-dropped": (
        RELAX, "                if v:  # b - A u has a part off the face", "                if False:",
        [SQUARE_SCAN]),
    "pair-scan-divisibility-test-dropped": (
        RELAX, "            elif v < 0 or v % den:", "            elif v < 0:", [SQUARE_SCAN]),
    "relaxation-face-offsets-kept": (
        RELAX, "        offsets[i] = None\n", "        pass\n", [RELAX_ACCEPTANCE, SOLVES_FACE]),
    "relaxation-solves-ignores-the-face": (
        RELAX, "    solves = min(x) >= 0", "    solves = True", [RELAX_ACCEPTANCE, SOLVES_FACE]),
    "relaxation-lift-check-reads-the-face-as-off-it": (
        RELAX, "xi < 0 and o is not None", "xi < 0 and o is None",
        [RELAX_ACCEPTANCE, SOLVES_FACE]),
    "optimal-face-strict-cone-test": (
        TRIANGULATION, "if min(lam) >= 0:", "if min(lam) > 0:", [OPTIMAL_FACE]),
    "replan-ignores-the-seed": (
        GROEBNER, "_saturating_variables(basis, a.n, (s,))", "_saturating_variables(basis, a.n)",
        [REPLAN]),
    "replan-seed-not-closed": (
        GROEBNER, "closure(sum(1 << 8 * s for s in seed))", "sum(1 << 8 * s for s in seed)",
        [REPLAN, SEED_CLOSED]),
    "relaxation-face-unchecked": (
        RELAX, "    tau = _face(tau, a.n)\n", "    tau = tuple(sorted(tau))\n", [MALFORMED]),
    "walk-ties-broken-by-the-lowest-index": (
        TRIANGULATION, "    if len(tied) < 2:\n", "    if True:\n", [WALK_SEEDED, WALK_DEGENERATE]),
    "walk-start-dual-point-dropped": (
        TRIANGULATION, "    y = [min((*cost, 0)) * g for g in a.grading]\n",
        "    y = [0 for g in a.grading]\n", [WALK_SEEDED, SHIFTED_COSTS]),
    "walk-start-cost-row-loses-y": (
        TRIANGULATION, "*(-v for v in y), 1]", "*(0 for v in y), 1]", [WALK_SEEDED]),
    "walk-ratio-test-keeps-the-largest-ratio": (
        TRIANGULATION, "            if diff < 0:\n                continue\n",
        "            if diff > 0:\n                continue\n", [WALK_SEEDED, WALK_SHARP]),
    "walk-unbounded-edge-check-dropped": (
        TRIANGULATION, "        if j is None:  # an unbounded edge\n            continue\n", "",
        [WALK_SEEDED, WALK_SHARP]),
    "unimodularity-degenerate-guard-removed": (
        TRIANGULATION, "    if not delta.is_triangulation:\n        raise Degenerate(\"unimodularity_report",
        "    if False:\n        raise Degenerate(\"unimodularity_report", [NOT_TRIANGULATION]),
}


def _copy(dest):
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _pytest(copy, tests):
    """pytest's exit code on ``tests`` in ``copy``: 0 passed, 1 some failed, other an error."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run([sys.executable, "-c", "import toricip; print(toricip.__file__)"],
                           cwd=copy, env=env, capture_output=True, text=True).stdout
    if not where.startswith(str(copy)):
        raise SystemExit(f"the copy's toricip is shadowed by {where.strip()}")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True).returncode


def run(names):
    """Report each mutant as killed, survived or not applied; True when all are killed."""
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        tests = sorted({t for n in names for t in MUTANTS[n][3]})
        if _pytest(clean, tests) != 0:
            raise SystemExit("the tests fail on the unpatched copy")
    killed = 0
    for name in names:
        path, old, new, tests = MUTANTS[name]
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp)
            _copy(copy)
            source = (copy / path).read_text()
            if source.count(old) != 1:
                verdict = "not applied"
            else:
                (copy / path).write_text(source.replace(old, new))
                code = _pytest(copy, tests)
                verdict = {0: "survived", 1: "killed"}.get(code, f"pytest error {code}")
        killed += verdict == "killed"
        print(f"{verdict:12} {name}  ({path}; {', '.join(t.split('::')[-1] for t in tests)})")
    print(f"{len(names)} mutants: {killed} killed, {len(names) - killed} not")
    return killed == len(names)


if __name__ == "__main__":
    chosen = sys.argv[1:] or list(MUTANTS)
    unknown = [n for n in chosen if n not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    sys.exit(0 if run(chosen) else 1)
