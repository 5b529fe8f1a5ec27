"""Command-line front end.

Every command prints one JSON document (or TSV with --tsv) with sorted keys
and sorted face/pair lists, so identical configurations produce byte-identical
output.  Exit codes: 0 success, 1 domain error (with error.kind) or a stdout
closed early (with nothing on stderr), 2 parse error.
"""

import argparse
import json
import os
import sys

# fileio and what it needs load with this module; each command imports the
# rest of the library it runs, so a command loads only its own code path
from . import fileio
from .errors import Degenerate, DomainError, ParseError, int_vector
from .fileio import face_key, face_out
from .linalg import dot


def _emit(args, payload):
    if getattr(args, "tsv", False):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, list):
                value = ";".join(json.dumps(v, separators=(",", ":")) for v in value)
            elif isinstance(value, dict):
                value = ";".join(f"{k}={json.dumps(v, separators=(',', ':'))}"
                                 for k, v in sorted(value.items()))
            elif not isinstance(value, str):
                value = json.dumps(value)
            print(f"{key}\t{value}")
    else:
        print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))


def _vector(spec, length, name):
    """A vector argument, which must have ``length`` entries."""
    return int_vector(fileio.read_vector(spec), length, name)


def _model(args):
    """The --matrix of a command and its --cost, of one entry per column."""
    a = fileio.read_matrix(args.matrix)
    return a, _vector(args.cost, a.n, "cost")


def _triangulation_payload(delta, tdi):
    return {
        "maximal_faces": [face_out(f) for f in delta.maximal_faces],
        "certificates": {
            face_key(f): [str(v) for v in y]
            for f, y in zip(delta.maximal_faces, delta.certificates)
        },
        "triangulation": delta.is_triangulation,
        "tdi": tdi,
    }


def cmd_triangulate(args):
    from .triangulation import regular_subdivision, unimodularity_report
    a, cost = _model(args)
    delta = regular_subdivision(a, cost)
    tdi = unimodularity_report(a, delta).tdi if delta.is_triangulation else False
    _emit(args, _triangulation_payload(delta, tdi))


def cmd_groebner(args):
    from .groebner import CostOrder, toric_groebner
    a, cost = _model(args)
    gb = toric_groebner(a, CostOrder.from_cost(cost))
    _emit(args, {
        "elements": [{"plus": list(b.head), "minus": list(b.tail)} for b in gb.elements],
        "generic": gb.generic,
    })


def cmd_solve(args):
    from .groebner import CostOrder, solve_ip
    a, cost = _model(args)
    b = _vector(args.rhs, a.d, "rhs")
    opt = solve_ip(a, CostOrder.from_cost(cost), b)
    _emit(args, {"optimum": list(opt), "value": dot(cost, opt)})


def cmd_relax(args):
    from . import relax
    from .triangulation import regular_subdivision
    a, cost = _model(args)
    b = _vector(args.rhs, a.d, "rhs")
    tau = fileio.read_face(args.face, a.n)
    delta = regular_subdivision(a, cost)
    rel = relax.build_relaxation(a, cost, delta, tau, b)
    out = relax.solve_relaxation(rel)
    _emit(args, {
        "face": face_out(tau),
        "z": list(out.z),
        "x": list(out.x),
        "solves_ip": out.solves_ip,
        "value": out.value,
    })


def cmd_solve_sp(args):
    from . import relax, stdpairs
    a, cost = _model(args)
    b = _vector(args.rhs, a.d, "rhs")
    _, _, decomp, _ = stdpairs.decomposition_for(a, cost)
    opt, pair = relax.solve_via_standard_pairs(decomp, a, b)
    _emit(args, {
        "optimum": list(opt),
        "value": dot(cost, opt),
        "pair": {"root": list(pair.root), "face": face_out(pair.face)},
    })


def _decomposition_payload(decomp, delta):
    from . import stdpairs
    report = stdpairs.associated_report(decomp, delta)
    return {
        "pairs": [
            {"root": list(p.root), "face": face_out(p.face)} for p in decomp.pairs
        ],
        "multiplicities": {face_key(f): c for f, c in report.multiplicities},
        "arithmetic_degree": decomp.arithmetic_degree,
        "associated_sets": [face_out(f) for f in report.associated_sets],
        "gomory_family": stdpairs.is_gomory_family(decomp, delta),
        "max_chain": [face_out(f) for f in report.max_chain],
    }


def cmd_stdpairs(args):
    from . import stdpairs
    a, cost = _model(args)
    delta, gb, decomp, refined = stdpairs.decomposition_for(a, cost)
    if args.oracle:
        if refined:  # the oracle has no cost that realizes the lex refinement
            raise Degenerate("the oracle cannot check a lex-refined decomposition")
        from . import oracle
        box = [max(e - 1, 0) for e in stdpairs.initial_ideal(gb).max_exponents()]
        decomp = oracle.brute_force_standard_pairs(a, cost, delta, root_box=box, margin=1)
    payload = _decomposition_payload(decomp, delta)
    if args.oracle:
        payload["oracle"] = True
    if refined:
        payload["refined"] = True
    _emit(args, payload)


def cmd_assoc(args):
    from . import stdpairs
    a, cost = _model(args)
    delta, gb, decomp, refined = stdpairs.decomposition_for(a, cost)
    report = stdpairs.associated_report(decomp, delta)
    _emit(args, {
        "associated_sets": [face_out(f) for f in report.associated_sets],
        "multiplicities": {face_key(f): c for f, c in report.multiplicities},
        "arithmetic_degree": report.arithmetic_degree,
        "max_chain": [face_out(f) for f in report.max_chain],
        "max_chain_length": report.max_chain_length,
        "length_bound": report.length_bound,
    })


def cmd_gomory(args):
    from . import stdpairs
    a, cost = _model(args)
    delta, _, decomp, _ = stdpairs.decomposition_for(a, cost)
    _emit(args, {"gomory_family": stdpairs.is_gomory_family(decomp, delta)})


def cmd_hilbert(args):
    from . import hilbert
    rows, _ = fileio.read_raw_matrix(args.generators)  # hilbert_basis checks each column
    basis = hilbert.hilbert_basis(zip(*rows))
    _emit(args, {"basis": [list(h) for h in basis.elements]})


def cmd_normality(args):
    from . import hilbert
    a = fileio.read_matrix(args.matrix)
    delta = fileio.read_faces_json(args.triangulation, a.n) if args.triangulation else None
    report = hilbert.normality_report(a, delta, check_super=args.super)
    payload = {
        "normal": report.normal,
        "witness": list(report.witness) if report.witness else None,
    }
    if delta is not None:
        payload["delta_normal"] = report.delta_normal
        payload["per_face"] = {face_key(f): flag for f, flag in report.per_face}
    if args.super:
        payload["supernormal"] = report.supernormal
    _emit(args, payload)


def cmd_gomory_cost(args):
    from . import hilbert
    a = fileio.read_matrix(args.matrix)
    faces = fileio.read_faces_json(args.triangulation, a.n)
    result = hilbert.gomory_cost(a, faces)
    _emit(args, {
        "cost": list(result.cost),
        "pairs": [
            {"root": list(p.root), "face": face_out(p.face)}
            for p in sorted(result.pairs, key=lambda p: (len(p.face), p.face, p.root))
        ],
    })


def cmd_sharp_family(args):
    from . import hilbert
    if not 2 <= args.m <= 10:  # 2^m - 1 rows: m = 10 takes seconds, and each step 4x that
        raise ParseError(f"--m must be in 2..10, got {args.m}")
    a, cost = hilbert.sharp_family(args.m)
    _emit(args, {
        "matrix": [list(r) for r in a.entries],
        "cost": list(cost),
        "d": a.d,
        "n": a.n,
    })


def cmd_oracle_points(args):
    from . import oracle
    rows, n = fileio.read_raw_matrix(args.rows)
    offs = _vector(args.offsets, len(rows), "offsets")
    # with no rows, the trivial row 0 . z <= 0 keeps the file's dimension n
    poly = oracle.IneqPolytope.from_rows(list(zip(rows, offs)) or [((0,) * n, 0)])
    pts = oracle.enumerate_lattice_points(poly)
    _emit(args, {"points": [list(p) for p in pts], "oracle": True})


def cmd_oracle_fiber(args):
    from . import oracle
    a, cost = _model(args)
    b = _vector(args.rhs, a.d, "rhs")
    opt, fiber = oracle.fiber_solve(a, cost, b, with_fiber=True)
    _emit(args, {
        "optimum": list(opt) if opt else None,
        "fiber": [list(x) for x in fiber],
        "oracle": True,
    })


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ParseError, so it too prints one JSON document."""

    def error(self, message):
        raise ParseError(message)


def build_parser():
    p = _Parser(prog="toricip", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--tsv", action="store_true")

    def command(parent, name, func, *required):
        sp = parent.add_parser(name, parents=[shared])
        for option in required:
            sp.add_argument(f"--{option}", required=True)
        sp.set_defaults(func=func)
        return sp

    model = ("matrix", "cost")
    command(sub, "triangulate", cmd_triangulate, *model)
    command(sub, "groebner", cmd_groebner, *model)
    command(sub, "solve", cmd_solve, *model, "rhs")
    command(sub, "relax", cmd_relax, *model, "rhs").add_argument("--face", default="")
    command(sub, "solve-sp", cmd_solve_sp, *model, "rhs")
    command(sub, "stdpairs", cmd_stdpairs, *model).add_argument("--oracle", action="store_true")
    command(sub, "assoc", cmd_assoc, *model)
    command(sub, "gomory", cmd_gomory, *model)
    command(sub, "hilbert", cmd_hilbert, "generators")
    sp = command(sub, "normality", cmd_normality, "matrix")
    sp.add_argument("--triangulation", default=None)
    sp.add_argument("--super", action="store_true")
    command(sub, "gomory-cost", cmd_gomory_cost, "matrix", "triangulation")
    command(sub, "sharp-family", cmd_sharp_family).add_argument("--m", type=int, required=True)

    osub = sub.add_parser("oracle").add_subparsers(dest="oracle_cmd", required=True)
    sp = command(osub, "points", cmd_oracle_points)
    sp.add_argument("--rows", required=True, help="matrix file of inequality normals")
    sp.add_argument("--offsets", required=True, help="vector of right-hand sides")
    command(osub, "fiber", cmd_oracle_fiber, *model, "rhs")
    command(osub, "stdpairs", cmd_stdpairs, *model).set_defaults(oracle=True)
    return p


def main(argv=None):
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed stdout fails here, not in the exit-time flush
        return code
    except BrokenPipeError:  # the reader left: quietly, with stdout on devnull for that flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv):
    try:
        args = build_parser().parse_args(argv)
        if [] in vars(args).values():  # argparse reads "--face=--" as []
            raise ParseError("an option value cannot be '--'")
        args.func(args)
        return 0
    except ParseError as exc:
        print(json.dumps({"error": {"kind": "parse", "message": str(exc)}}))
        return 2
    except DomainError as exc:
        print(json.dumps({"error": {"kind": exc.kind, "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
